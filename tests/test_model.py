import itertools
import json
import math
import operator
import random
from collections import Counter

import numpy as np
import pytest

from conftest import cold_copy, prefix_logits, tiny_model, trie_of
from textidrec import model as model_module
from textidrec.allocator import IdRegistry, TextualId
from textidrec.autograd import Tensor, concat, stack_rows
from textidrec.model import (AdamState, ModelConfig, SequenceModel, SequenceTooLong,
                             ShapeMismatch, VocabularyMismatch, apply_update,
                             expected_embedding, expected_embedding_rows, load_checkpoint,
                             log_softmax_rows, save_checkpoint)
from textidrec.recommender import build_trie
from textidrec.tokenizer import EOS_ID, PAD_ID


def test_init_deterministic_and_seed_sensitive():
    cfg = ModelConfig(vocab_size=20, seed=4)
    a, b = SequenceModel.init(cfg), SequenceModel.init(cfg)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    c = SequenceModel.init(ModelConfig(vocab_size=20, seed=5))
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


def test_init_values_within_bound():
    cfg = ModelConfig(vocab_size=30, d_model=16, seed=1)
    model = SequenceModel.init(cfg)
    bound = 1.0 / math.sqrt(cfg.d_model)
    for arr in model.params.values():
        assert np.all(np.abs(arr) <= bound)


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=10, heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ValueError, match="seed"):
        ModelConfig(vocab_size=10, seed=-1)


def test_encode_deterministic_and_position_sensitive():
    model = tiny_model(vocab_size=12, seed=2)
    a = model.encode([3, 4]).data
    b = model.encode([3, 4]).data
    assert np.array_equal(a, b)
    swapped = model.encode([4, 3]).data
    assert not np.allclose(a, swapped)


def test_encode_empty_and_too_long():
    model = tiny_model(vocab_size=12, max_src_len=4)
    assert model.encode([]).data.shape[0] == 0
    assert model.encode_embeddings(np.zeros((0, 16))).data.shape[0] == 0
    assert model.encode([3, 3, 3, 3]).data.shape[0] == 4
    assert model.encode_embeddings(np.zeros((4, 16))).data.shape[0] == 4
    with pytest.raises(SequenceTooLong):
        model.encode([3, 3, 3, 3, 3])
    with pytest.raises(SequenceTooLong):
        model.encode_embeddings(np.zeros((5, 16)))


def test_encode_embeddings_equals_encode_on_gathered_rows():
    model = tiny_model(vocab_size=12, seed=7)
    ids = [3, 5, 7]
    gathered = model.params["tok_emb"][np.array(ids)]
    via_tokens = model.encode(ids).data
    via_embs = model.encode_embeddings(gathered).data
    assert np.array_equal(via_tokens, via_embs)


def test_encode_embeddings_input_gradient_matches_fd():
    model = tiny_model(vocab_size=10, seed=3, d_model=8, heads=2)
    rows = np.random.default_rng(0).normal(size=(3, 8))

    def loss_value():
        state = model.encode_embeddings(rows)
        return model.sequence_nll(state, [4, EOS_ID]).data.item()

    inp = Tensor(rows, requires_grad=True)
    loss = model.sequence_nll(model.encode_embeddings(inp), [4, EOS_ID])
    loss.backward()
    eps = 1e-6
    for idx in ((0, 0), (1, 3), (2, 7)):
        orig = rows[idx]
        rows[idx] = orig + eps
        hi = loss_value()
        rows[idx] = orig - eps
        lo = loss_value()
        rows[idx] = orig
        fd = (hi - lo) / (2 * eps)
        assert abs(fd - inp.grad[idx]) / max(abs(fd), abs(inp.grad[idx]), 1e-8) < 1e-4


def test_prefix_logits_shape_and_normalization():
    model = tiny_model(vocab_size=17)
    state = model.encode([3, 4, 5])
    row = prefix_logits(model, state, [[6]])[0]
    assert row.shape == (17,)
    assert np.all(np.isfinite(row))
    z = row - row.max()
    probs = np.exp(z) / np.exp(z).sum()
    assert abs(probs.sum() - 1.0) < 1e-12


def test_decoder_prefix_sensitivity_and_capacity():
    model = tiny_model(vocab_size=12, max_tgt_len=4)
    state = model.encode([3])
    empty, extended = prefix_logits(model, state, [[], [5]])
    assert not np.allclose(empty, extended)
    with pytest.raises(SequenceTooLong):
        prefix_logits(model, state, [[5, 5, 5, 5]])


def test_explicit_chain_parents_equal_causal_decoding():
    model = tiny_model(vocab_size=12, seed=3, layers=2)
    state = model.encode([3, 4])
    ids = [0, 5, 6, 7]
    causal = model.decoder_all_logits(state, ids).data
    depth, mask = loop_tree_layout([-1, 0, 1, 2])
    chain = model.decoder_all_logits(state, ids, layout=model_module._Forest(depth, mask)).data
    assert np.array_equal(causal, chain)


def loop_tree_layout(parents):
    """The depth of each row of a forest given by its parents (which precede
    their children; a root's is negative) and the additive self-attention
    mask that lets a row see only itself and its ancestors, one row at a
    time: the dense tree layout the tests compare against."""
    n = len(parents)
    depth = np.zeros(n, dtype=np.int64)
    allowed = np.eye(n, dtype=bool)
    for i, p in enumerate(parents):
        if p >= 0:
            if p >= i:
                raise ValueError(f"row {i} has parent {p}; parents must precede their children")
            depth[i] = depth[p] + 1
            allowed[i] |= allowed[p]
    return depth, np.where(allowed, 0.0, -1e30)


def random_forest(rng, n: int, p_chain: float) -> np.ndarray:
    """Parents of n rows: a few roots; each other row continues the previous
    row's path with probability `p_chain`, else branches off any earlier row."""
    parents = np.full(n, -1, dtype=np.int64)
    for i in range(1, n):
        draw = rng.random()
        if draw < p_chain:
            parents[i] = i - 1
        elif draw < 0.95:
            parents[i] = rng.integers(0, i)
    return parents


@pytest.mark.parametrize("n", [0, 1, 2, 5, 24])
def test_chain_layout_is_the_tree_layout_of_a_chain(n):
    depth, mask = model_module._chain_layout(n)
    want_depth, want_mask = loop_tree_layout(np.arange(n) - 1)
    assert np.array_equal(depth, want_depth)
    assert np.array_equal(mask, want_mask)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 24])
def test_roots_mask_is_the_tree_layout_mask_of_roots(n):
    # n one-row segments are a forest of roots: each row sees itself alone
    depth, seg = model_module._segments(np.ones(n, dtype=np.int64))
    want_depth, want_mask = loop_tree_layout(np.full(n, -1))
    assert np.array_equal(depth, want_depth)
    assert np.array_equal(model_module._same_segment(seg, seg), want_mask)
    assert np.array_equal(want_mask, np.where(np.eye(n, dtype=bool), 0.0, -1e30))


def per_head_attention(pt, prefix, q_in, kv_in, heads, mask=None):
    """Reference multi-head attention: one slice, score and softmax per head."""
    q = q_in @ pt[f"{prefix}_wq"]
    k = kv_in @ pt[f"{prefix}_wk"]
    v = kv_in @ pt[f"{prefix}_wv"]
    dh = q.data.shape[-1] // heads
    outs = []
    for h in range(heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = (q[:, cols] @ k[:, cols].T) * (1.0 / math.sqrt(dh))
        if mask is not None:
            scores = scores + mask
        outs.append(scores.softmax(axis=-1) @ v[:, cols])
    return concat(outs, axis=1) @ pt[f"{prefix}_wo"]


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["masked_self", "cross"])
def test_batched_attention_matches_per_head_loop(heads, kind):
    rng = np.random.default_rng(heads)
    d, rows = 8, 5
    keys = rows if kind == "masked_self" else 3
    names = [f"att_w{x}" for x in "qkvo"]
    arrays = {name: rng.normal(size=(d, d)) for name in names}
    arrays["q_in"] = rng.normal(size=(rows, d))
    arrays["kv_in"] = arrays["q_in"] if kind == "masked_self" else rng.normal(size=(keys, d))
    mask = None
    if kind == "masked_self":
        _, mask = loop_tree_layout([-1, 0, 1, 0, 3])
    weights = rng.normal(size=(rows, d))
    results = []
    for attention in (model_module._attention, per_head_attention):
        pt = {name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()}
        kv_in = pt["q_in"] if kind == "masked_self" else pt["kv_in"]
        out = attention(pt, "att", pt["q_in"], kv_in, heads, mask=mask)
        (out * weights).sum().backward()
        results.append((out.data, {name: t.grad for name, t in pt.items()}))
    (batched, batched_grads), (reference, reference_grads) = results
    assert batched.shape == (rows, d)
    assert np.max(np.abs(batched - reference)) < 1e-12
    for name, grad in reference_grads.items():
        if grad is None:
            assert batched_grads[name] is None, name
        else:
            assert np.max(np.abs(batched_grads[name] - grad)) < 1e-12, name


@pytest.mark.parametrize("trainable", ["all", "inputs", "none"])
def test_attention_over_leading_axes_equals_one_call_per_entry(trainable):
    # each batch entry attends only to its own keys, under its own mask; the
    # weights' gradients sum over the entries
    rng = np.random.default_rng(len(trainable))
    d, heads = 8, 2
    arrays = {f"att_w{x}": rng.normal(size=(d, d)) for x in "qkvo"}
    arrays["q_in"] = rng.normal(size=(3, 2, d))
    arrays["kv_in"] = rng.normal(size=(3, 5, d))
    mask = np.where(np.arange(5) < np.array([5, 3, 1])[:, None], 0.0, -1e30)[:, None, None, :]
    upstream = rng.normal(size=(3, 2, d))

    def attend(arrays, mask, upstream):
        pt = {name: Tensor(arr, requires_grad=TRAINABLE[trainable](name)) for name, arr in arrays.items()}
        out = model_module._attention(pt, "att", pt["q_in"], pt["kv_in"], heads, mask=mask)
        if out.requires_grad:
            (out * upstream).sum().backward()
        return out.data, {name: t.grad for name, t in pt.items()}

    out, grads = attend(arrays, mask, upstream)
    entries = [attend(dict(arrays, q_in=arrays["q_in"][b], kv_in=arrays["kv_in"][b]), mask[b, 0], upstream[b])
               for b in range(3)]
    assert np.max(np.abs(out - np.stack([entry_out for entry_out, _ in entries]))) < 1e-12
    for name, grad in grads.items():
        parts = [entry_grads[name] for _, entry_grads in entries]
        if grad is None:
            assert all(part is None for part in parts), name
        else:
            want = np.stack(parts) if name in ("q_in", "kv_in") else sum(parts)
            assert np.max(np.abs(grad - want)) < 1e-12, name


def chain_attention(pt, prefix, q_in, kv_in, heads, mask=None, mm=operator.matmul):
    """Attention as the 17-op chain `_attention` fuses into one node: the
    reference for its bits (of a pass whose products are plain matmul)."""
    assert mm is operator.matmul
    rows, width = q_in.data.shape[0], pt[f"{prefix}_wq"].data.shape[1]
    keys, dh = kv_in.data.shape[0], width // heads
    q = (q_in @ pt[f"{prefix}_wq"]).reshape(rows, heads, dh).swapaxes(0, 1)
    k_t = (kv_in @ pt[f"{prefix}_wk"]).T.reshape(heads, dh, keys)
    v = (kv_in @ pt[f"{prefix}_wv"]).reshape(keys, heads, dh).swapaxes(0, 1)
    scores = (q @ k_t) * (1.0 / math.sqrt(dh))
    if mask is not None:
        scores = scores + mask
    heads_out = scores.softmax(axis=-1) @ v
    return heads_out.swapaxes(0, 1).reshape(rows, width) @ pt[f"{prefix}_wo"]


def chain_feed_forward(pt, prefix, x, mm=operator.matmul):
    """The 5-op chain `_feed_forward` fuses into one node: the reference for
    its bits (of a pass whose products are plain matmul)."""
    assert mm is operator.matmul
    return (x @ pt[f"{prefix}_w1"] + pt[f"{prefix}_b1"]).gelu() @ pt[f"{prefix}_w2"] + pt[f"{prefix}_b2"]


# trainable names per case: the recommender phase, the generator phase
# (frozen weights, trainable inputs), only the attended memory (cross
# attention in the generator's first decoder layer), only the weights, and
# inference
TRAINABLE = {
    "all": lambda name: True,
    "inputs": lambda name: name in ("q_in", "kv_in", "x"),
    "memory": lambda name: name == "kv_in",
    "weights": lambda name: name not in ("q_in", "kv_in", "x"),
    "none": lambda name: False,
}


def run_block(block, arrays, trainable, call, upstream):
    """Output and per-name gradients of one block under `trainable`, with
    `upstream` giving a C-ordered and a transposed output gradient."""
    pt = {name: Tensor(arr, requires_grad=TRAINABLE[trainable](name)) for name, arr in arrays.items()}
    out = call(block, pt)
    w_rows, w_cols = upstream
    if out.requires_grad:
        ((out * w_rows).sum() + (out.T * w_cols).sum()).backward()
    return out, {name: t.grad for name, t in pt.items()}


def assert_same_block(fused_run, chain_run, trainable):
    (fused, fused_grads), (chain, chain_grads) = fused_run, chain_run
    assert np.array_equal(fused.data, chain.data)
    assert fused.requires_grad == chain.requires_grad
    if trainable == "none":
        assert not fused.requires_grad and fused._parents == () and fused._backward is None
    for name, want in chain_grads.items():
        got = fused_grads[name]
        assert (got is None) == (want is None), name
        assert want is None or (got.shape == want.shape and np.array_equal(got, want)), name


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("kind", ["self", "causal", "tree", "cross"])
@pytest.mark.parametrize("trainable", list(TRAINABLE))
def test_fused_attention_equals_op_chain(heads, kind, trainable):
    rng = np.random.default_rng(heads * 100 + len(kind) * 10 + len(trainable))
    d, rows = 8, 5
    keys = 7 if kind == "cross" else rows
    arrays = {f"att_w{x}": rng.normal(size=(d, d)) for x in "qkvo"}
    arrays["q_in"] = rng.normal(size=(rows, d))
    if kind == "cross":
        arrays["kv_in"] = rng.normal(size=(keys, d))
    mask = {"self": None, "cross": None, "causal": model_module._chain_layout(rows)[1],
            "tree": loop_tree_layout([-1, 0, 1, 0, 3])[1]}[kind]

    def call(block, pt):
        kv_in = pt["kv_in"] if kind == "cross" else pt["q_in"]
        return block(pt, "att", pt["q_in"], kv_in, heads, mask=mask)

    upstream = rng.normal(size=(rows, d)), rng.normal(size=(d, rows))
    assert_same_block(run_block(model_module._attention, arrays, trainable, call, upstream),
                      run_block(chain_attention, arrays, trainable, call, upstream), trainable)


@pytest.mark.parametrize("rows", [1, 6])
@pytest.mark.parametrize("trainable", list(TRAINABLE))
def test_fused_feed_forward_equals_op_chain(rows, trainable):
    rng = np.random.default_rng(rows * 10 + len(trainable))
    d, ff = 8, 12
    arrays = {"x": rng.normal(size=(rows, d)) * 2.0, "ff_w1": rng.normal(size=(d, ff)),
              "ff_b1": rng.normal(size=ff), "ff_w2": rng.normal(size=(ff, d)),
              "ff_b2": rng.normal(size=d)}

    def call(block, pt):
        return block(pt, "ff", pt["x"])

    upstream = rng.normal(size=(rows, d)), rng.normal(size=(d, rows))
    assert_same_block(run_block(model_module._feed_forward, arrays, trainable, call, upstream),
                      run_block(chain_feed_forward, arrays, trainable, call, upstream), trainable)


@pytest.mark.parametrize("phase", ["recommender", "generator"])
def test_fused_blocks_match_op_chains_over_sequence_nll(monkeypatch, phase):
    """A whole loss through fused blocks against the same loss through the op
    chains. Losses and decoder gradients agree bit for bit. Encoder-side
    gradients agree only to rounding: in the chain graph the encoder output
    collects its cross-attention contributions as dec0 K, dec0 V, dec1 K,
    dec1 V, while a fused dec1 node runs before the dec0 node it depends
    on, so dec1's pair is added first."""
    model = tiny_model(vocab_size=23, seed=9, layers=2, heads=4)
    rows = np.random.default_rng(3).normal(size=(6, 16))
    results = []
    for attention, feed_forward in ((model_module._attention, model_module._feed_forward),
                                    (chain_attention, chain_feed_forward)):
        monkeypatch.setattr(model_module, "_attention", attention)
        monkeypatch.setattr(model_module, "_feed_forward", feed_forward)
        src = Tensor(rows, requires_grad=phase == "generator")
        pt = model.trainable() if phase == "recommender" else None
        loss = model.sequence_nll(model.encode_embeddings(src, pt), [5, 6, 7, EOS_ID], pt)
        loss.backward()
        grads = {name: t.grad for name, t in (pt or {}).items()}
        grads["src"] = src.grad
        results.append((loss.data, grads))
    (fused_loss, fused), (chain_loss, chain) = results
    assert np.array_equal(fused_loss, chain_loss)
    for name, want in chain.items():
        got = fused[name]
        assert (got is None) == (want is None), name
        if want is None:
            continue
        if name.startswith(("dec", "tgt_pos")):
            assert np.array_equal(got, want), name
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), name


def test_forward_pass_op_counts(autograd_ops, monkeypatch):
    """Guards the per-pass op budget at the default config: each attention
    block, feed-forward block and layer norm is one op, so an encode builds
    16 and a two-layer chain pass 24, and a pass under any other layout no
    more (a layout adds no op); splitting any block back into its op chain
    would break these bounds."""
    model = SequenceModel.init(ModelConfig(vocab_size=20))
    for params in (None, model.trainable()):
        autograd_ops[0] = 0
        state = model.encode([3, 4, 5, 6, 7], params)
        assert autograd_ops[0] <= 20
        autograd_ops[0] = 0
        model.decoder_all_logits(state, [0, 5, 6], params)
        assert autograd_ops[0] <= 24
    ops = {}  # per layout, the ops of each decoder pass
    original = SequenceModel.decoder_all_logits

    def counted(self, ctx, ids, params=None, layout=None):
        before = autograd_ops[0]
        out = original(self, ctx, ids, params, layout)
        ops.setdefault(type(layout).__name__, []).append(autograd_ops[0] - before)
        return out

    monkeypatch.setattr(SequenceModel, "decoder_all_logits", counted)
    # a forest of three chains, each against its own source (a row that sees
    # no context would cost one op more: its cross-attention is zeroed)
    for params in (None, model.trainable()):
        model.packed_logits([([3, 4], [0, 5, 6]), ([7], [0, 8]), ([5, 5, 9], [0])], params)
    # trie passes: every node, a head-slot hit, and some rows of a block
    trie, _ = trie_of([(5, 6, 7), (5, 8), (9,), (9, 4, 4)])
    for rows in (None, None, [0, 5]):
        model.prefix_logits(state, trie, rows)
    # wave passes over three contexts, one of them empty
    cache = NamedTrie([state, model.encode([6]), model.encode([])])
    for depth in range(3):
        pairs = [(c, (5, 6, 7)[:depth]) for c in range(3)]
        model.wave_logits(cache, cache.nodes(pairs), lambda indices, logits: None)
    assert set(ops) == {"_Forest", "_TriePass", "_WavePass"}
    assert len(ops["_TriePass"]) == 3 and len(ops["_WavePass"]) == 3
    assert all(0 < n <= 24 for runs in ops.values() for n in runs), ops


def random_prefix_tree(rng: random.Random, vocab_size: int, n_seqs: int,
                       max_len: int) -> list[tuple[int, ...]]:
    """Every prefix of a few random token sequences, shuffled."""
    seqs = [tuple(rng.randrange(vocab_size) for _ in range(rng.randint(0, max_len)))
            for _ in range(n_seqs)]
    prefixes = sorted({s[:k] for s in seqs for k in range(len(s) + 1)})
    rng.shuffle(prefixes)
    return prefixes


def assert_rows_match_per_prefix(model, state, prefixes, rows=None) -> None:
    rows = prefix_logits(model, state, prefixes) if rows is None else rows
    assert rows.shape == (len(prefixes), model.config.vocab_size)
    for prefix, row in zip(prefixes, rows):
        causal = model.decoder_all_logits(state, (PAD_ID, *prefix)).data[-1]
        assert np.max(np.abs(row - causal)) < 1e-12


@pytest.mark.parametrize("layers,heads", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)])
def test_prefix_logits_match_per_prefix_decoding(layers, heads):
    rng = random.Random(10 * layers + heads)
    model = tiny_model(vocab_size=11, seed=layers + heads, layers=layers, heads=heads)
    state = model.encode([3, 4, 5, 6])
    assert_rows_match_per_prefix(model, state, random_prefix_tree(rng, 11, 12, 6))


def test_prefix_logits_with_empty_encoder_state():
    model = tiny_model(vocab_size=11, seed=2)
    state = model.encode([])
    assert state.data.shape[0] == 0
    assert_rows_match_per_prefix(model, state, random_prefix_tree(random.Random(1), 11, 6, 5))


def test_prefix_logits_across_row_blocks(monkeypatch, decoder_calls):
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 8)
    model = tiny_model(vocab_size=11, seed=5, layers=2)
    state = model.encode([3, 4])
    prefixes = random_prefix_tree(random.Random(2), 11, 15, 6)
    prefix_logits(model, state, prefixes)
    tree_passes = list(decoder_calls)
    assert len(tree_passes) > 1 and max(tree_passes) <= 8
    assert_rows_match_per_prefix(model, state, prefixes)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 17, 100])
@pytest.mark.parametrize("p_chain", [0.0, 0.6, 0.9])
@pytest.mark.parametrize("earlier", ["all", "none"])
def test_sparse_tree_mask_attention_equals_dense(monkeypatch, n, p_chain, earlier):
    # a random forest of trie rows: the trie passes' self-attention over each
    # row's (row, ancestor) pairs against `_attention` under the forest's
    # dense tree mask; with "all", a pass per row, so every ancestor's keys
    # and values come from an earlier pass, with "none" one pass for all
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 1 if earlier == "all" else 512)
    rng = np.random.default_rng(n * 10 + int(p_chain * 10))
    d, heads = 8, 4
    parents = random_forest(rng, n, p_chain)
    depth, mask = loop_tree_layout(parents)
    trie = model_module.PrefixTrie()
    trie.add(parents, rng.integers(3, 11, size=n), depth)
    pt = {f"dec0_self_w{x}": Tensor(rng.normal(size=(d, d))) for x in "qkvo"}
    pt["dec0_ln1_g"], pt["dec0_ln1_b"] = Tensor(rng.normal(size=d)), Tensor(rng.normal(size=d))
    x = rng.normal(size=(n, d)) * 3.0

    passes = model_module._trie_passes(trie, np.arange(n))
    assert len(passes) == (n if earlier == "all" else 1)
    kv, head = np.empty((1, 2, n, d)), np.empty((n, d))
    got = np.concatenate([p._replace(kv=kv, head=head).self_block(0, Tensor(x[p.kept]), pt, heads).data
                          for p in passes])
    assert same_bits(head, got)  # layer 0's rows, kept for a later context
    want = model_module._Forest(depth, mask).self_block(0, Tensor(x), pt, heads).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    h = Tensor(x).layer_norm(pt["dec0_ln1_g"], pt["dec0_ln1_b"]).data
    np.testing.assert_allclose(kv[0], [h @ pt["dec0_self_wk"].data, h @ pt["dec0_self_wv"].data],
                               rtol=1e-12, atol=1e-12)


class NamedTrie(model_module.DecodeCache):
    """A decode cache that names each (context, prefix) pair by a node, each
    context's prefixes under a root of their own, which carries the
    context."""

    def __init__(self, contexts):
        super().__init__()
        self.given = list(contexts)
        self.node_of: dict[tuple[int, tuple[int, ...]], int] = {}

    def node(self, c: int, prefix: tuple[int, ...]) -> int:
        if (c, prefix) not in self.node_of:
            if prefix:
                node = int(self.add([self.node(c, prefix[:-1])], [prefix[-1]])[0])
            else:
                node = self.new_root(self.given[c])
            self.node_of[c, prefix] = node
        return self.node_of[c, prefix]

    def nodes(self, pairs) -> np.ndarray:
        """The node of each (context, prefix) pair."""
        return np.array([self.node(c, tuple(p)) for c, p in pairs], dtype=np.int64)

    def decoded(self) -> set:
        """Each (context, prefix) whose node is decoded."""
        return {pair for pair, node in self.node_of.items() if self.entry[node] >= 0}


def wave_rows(model, cache, requests) -> np.ndarray:
    """The logits one `wave_logits` call passes out for the (context,
    prefix) `requests`, in request order (NaN for a request it never passed
    out)."""
    rows = np.full((len(requests), model.config.vocab_size), np.nan)

    def on_pass(indices, logits):
        rows[indices] = logits

    model.wave_logits(cache, cache.nodes(requests), on_pass)
    return rows


def wave_rows_by_depth(model, cache, requests) -> np.ndarray:
    """`wave_rows` of requests that hold every ancestor the cache has not
    decoded, one call per depth, shallowest first."""
    rows = np.full((len(requests), model.config.vocab_size), np.nan)
    for depth in sorted({len(p) for _, p in requests}):
        at = [i for i, (_, p) in enumerate(requests) if len(p) == depth]
        rows[at] = wave_rows(model, cache, [requests[i] for i in at])
    return rows


def decode_ancestors(model, cache, requests) -> None:
    """Decode every ancestor of `requests` that the cache has not decoded,
    one call per depth, shallowest first."""
    held = cache.decoded()
    wave_rows_by_depth(model, cache, sorted({(c, p[:k]) for c, p in requests for k in range(len(p))} - held))


def grow_through_cache(model, contexts, rng: random.Random, steps: int = 5):
    """Scores prefix trees grown step by step against several contexts
    through one decode cache. Each call extends some earlier prefixes of
    each context and repeats one, holds a duplicate, and adds a prefix
    whose ancestors earlier calls decode; every row must equal the
    memo-less and the per-prefix causal rows, and a call decodes exactly
    the nodes it is asked for. Returns the cache."""
    cache = NamedTrie(contexts)
    asked = {c: [()] for c in range(len(contexts))}
    vocab_size = model.config.vocab_size
    for _ in range(steps):
        requests = []
        for c, seen in asked.items():
            prefixes = [p + (rng.randrange(vocab_size),) for p in rng.sample(seen, min(3, len(seen)))]
            prefixes += [rng.choice(seen), prefixes[0]]
            prefixes.append(tuple(rng.randrange(vocab_size) for _ in range(rng.randint(2, 4))))
            seen += prefixes
            requests += [(c, p) for p in prefixes]
        decode_ancestors(model, cache, requests)
        held = cache.decoded()
        logits = wave_rows(model, cache, requests)
        assert cache.decoded() == held | set(requests)
        assert not np.isnan(logits).any()
        for (c, prefix), row in zip(requests, logits):
            ctx = contexts[c]
            assert np.max(np.abs(row - prefix_logits(model, ctx, [prefix])[0])) < 1e-12
            assert_rows_match_per_prefix(model, ctx, [prefix], row[None])
    return cache


@pytest.mark.parametrize("layers,heads", [(1, 1), (1, 2), (1, 4), (2, 1), (2, 2), (2, 4)])
@pytest.mark.parametrize("source", [[3, 4, 5, 6], []])
def test_memo_rows_match_memo_less_and_per_prefix_decoding(layers, heads, source):
    # the decode cache that replaced the per-search memo: one context here
    model = tiny_model(vocab_size=11, seed=layers + heads, layers=layers, heads=heads)
    ctx = model.encode(source)
    cache = grow_through_cache(model, [ctx], random.Random(10 * layers + heads))
    nodes = {pair: cache.node_of[pair] for pair in cache.decoded()}
    # a node keeps its keys and values at the layers after the first; layer
    # 0's are kept once per (token, depth) in the table, with the pair's
    # input, and a node names its entry there
    assert cache.kv.shape[1:] == (layers - 1, 2, 16)
    assert cache.layer0.shape[0] >= len(cache.entry_of) and cache.layer0.shape[1:] == (3, 16)
    assert sorted(cache.entry_of.values()) == list(range(len(cache.entry_of)))
    assert set(cache.entry_of) == {(prefix[-1] if prefix else PAD_ID, len(prefix)) for _, prefix in nodes}
    for (_, prefix), node in nodes.items():
        assert cache.entry[node] == cache.entry_of[prefix[-1] if prefix else PAD_ID, len(prefix)]
        assert cache.contexts[cache.context[node]] is ctx
    for (_, prefix), node in nodes.items():  # each node's parent chain is as long as its prefix
        for _ in prefix:
            node = cache.parent[node]
            assert node >= 0
        assert cache.parent[node] == -1


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("sources", [[[3, 4, 5, 6]], [[3, 4, 5, 6], [7]],
                                     [[9, 2], [], [5, 5, 5, 5, 5, 6]],
                                     [[3], [4, 4, 8, 9, 10], [], [6, 7]]])
def test_wave_rows_match_memo_less_decoding_over_several_contexts(layers, sources):
    # rows of contexts of different lengths, an empty one among them, share
    # passes; each row reads only its own context and its own ancestors
    model = tiny_model(vocab_size=11, seed=layers, layers=layers, heads=2)
    contexts = [model.encode(src) for src in sources]
    grow_through_cache(model, contexts, random.Random(len(sources) + 10 * layers))


def assert_table_holds_memo_less_inputs(model, cache, ctx) -> None:
    """Each layer-0 table entry's input, as uint64, equals the layer-0 input
    that a memo-less tree pass computes for its (token, depth)."""
    pairs = list(cache.entry_of)
    # a prefix per (token, depth) pair: depth - 1 filler tokens, then the token
    prefixes = [(3,) * (depth - 1) + (token,) if depth else () for token, depth in pairs]
    trie, nodes = trie_of(prefixes)
    wk, inputs = model.params["dec0_self_wk"], []

    class Seen(model_module._TriePass):
        @staticmethod
        def product(a, b):  # layer 0's key projection takes the self-attention input
            if b is wk:
                inputs.append(a)
            return model_module._TriePass.product(a, b)

    (one_pass,) = model_module._trie_passes(trie, np.arange(trie.size))
    kv = np.empty((model.config.layers, 2, trie.size, model.config.d_model))
    head = np.empty((trie.size, model.config.d_model))
    model.decoder_all_logits(ctx, one_pass.ids, layout=Seen(*one_pass)._replace(kv=kv, head=head))
    kept = inputs[0][nodes]  # every trie row's layer-0 input
    table = cache.layer0[[cache.entry_of[pair] for pair in pairs], 0]
    assert np.array_equal(table.view(np.uint64), kept.view(np.uint64))


@pytest.mark.parametrize("layers", [1, 2])
def test_layer0_table_holds_the_inputs_a_memo_less_pass_computes(layers):
    model = tiny_model(vocab_size=11, seed=3 + layers, layers=layers, heads=2)
    contexts = [model.encode([3, 4, 5]), model.encode([6]), model.encode([])]
    cache = grow_through_cache(model, contexts, random.Random(20 + layers))
    assert len(cache.entry_of) > 10
    assert_table_holds_memo_less_inputs(model, cache, contexts[0])


@pytest.mark.parametrize("layers", [1, 2])
def test_rows_whose_logits_are_not_wanted(layers, decoder_calls):
    # random prefixes lack ancestors, which a call refuses: their ancestors
    # are asked for first, in calls whose logits go unused, and then a call
    # decodes exactly the rows it is asked for, each attending through its
    # ancestors' kept state
    model = tiny_model(vocab_size=11, seed=7, layers=layers)
    contexts = [model.encode([3, 4]), model.encode([5, 6, 7])]
    cache, rng = NamedTrie(contexts), random.Random(layers)
    for _ in range(4):
        asked = sorted({(c, tuple(rng.randrange(11) for _ in range(rng.randint(1, 5))))
                        for c in (0, 1) for _ in range(4)})
        got = {}

        def on_pass(indices, logits):
            assert not set(indices.tolist()) & set(got)
            got.update(zip(indices.tolist(), logits))

        with pytest.raises(ValueError, match="not decoded"):
            model.wave_logits(cache, cache.nodes(asked), on_pass)
        decode_ancestors(model, cache, asked)
        decoder_calls.clear()
        model.wave_logits(cache, cache.nodes(asked), on_pass)
        assert sum(decoder_calls) == len(asked)
        assert sorted(got) == list(range(len(asked)))
        for k, row in got.items():
            c, prefix = asked[k]
            assert np.max(np.abs(row - prefix_logits(model, contexts[c], [prefix])[0])) < 1e-12
    assert_table_holds_memo_less_inputs(model, cache, contexts[0])


def test_a_one_layer_cache_keeps_no_float_per_row():
    model = tiny_model(vocab_size=11, seed=2, layers=1)
    cache = grow_through_cache(model, [model.encode([3, 4]), model.encode([5])], random.Random(4))
    assert cache.kv.nbytes == 0 and len(cache.decoded()) > len(cache.entry_of)
    assert cache.parent.dtype == cache.entry.dtype == np.int64


def test_memo_passes_split_across_row_blocks(monkeypatch, decoder_calls):
    # a wave pass holds rows of one depth k, at most `_WAVE_KEY_FLOATS` //
    # ((k + 1) * d_model) of them (at least one), here 8 // (k + 1); each
    # tree is asked for one depth per call, shallowest first
    monkeypatch.setattr(model_module, "_WAVE_KEY_FLOATS", 8 * 16)
    model = tiny_model(vocab_size=11, seed=5, layers=2)
    contexts = [model.encode([3, 4]), model.encode([5, 6, 7])]
    cache = NamedTrie(contexts)
    requests = [(c, p) for c in (0, 1) for p in sorted(random_prefix_tree(random.Random(2 + c), 11, 8, 5))]
    logits = wave_rows_by_depth(model, cache, requests)
    depths = Counter(len(p) for _, p in requests)
    steps = {k: max(1, 8 // (k + 1)) for k in depths}
    assert decoder_calls == [min(steps[k], n - lo) for k, n in sorted(depths.items()) for lo in range(0, n, steps[k])]
    assert max(decoder_calls) == 4 and decoder_calls[-1] == 1  # 4 rows at depth 1, 1 at depth 5
    assert cache.passes == len(decoder_calls) > len(depths) and len(cache.decoded()) == len(requests)
    for (c, prefix), row in zip(requests, logits):
        assert np.max(np.abs(row - prefix_logits(model, contexts[c], [prefix])[0])) < 1e-12


def test_memo_is_unchanged_when_a_call_raises(monkeypatch, decoder_calls):
    # two layers: a node keeps layer 1's keys and values, the table layer 0's;
    # a budget of 4 key rows (at d_model 16) runs 2 rows per pass at depth 1
    monkeypatch.setattr(model_module, "_WAVE_KEY_FLOATS", 4 * 16)
    model = tiny_model(vocab_size=12, max_tgt_len=4, layers=2)
    contexts = [model.encode([3]), model.encode([4, 5])]
    cache = NamedTrie(contexts)
    wave_rows_by_depth(model, cache, [(0, ()), (1, ()), (0, (6,)), (1, (6,)), (1, (6, 7)), (1, (6, 7, 1))])
    too_deep = [(0, (6, 1)), (1, (6, 7, 1, 2))]
    requests = [(0, (6, 1)), (1, (6, 7, 2)), (1, (8,)), (0, (9,))]
    cache.nodes(too_deep + requests + [(0, (9, 2))])  # named up front, so no call below grows the trie
    size, passes, entries, held = cache.size, cache.passes, dict(cache.entry_of), cache.decoded()
    kept = [cache.node_of[pair] for pair in held]
    arrays = kv, entry, layer0 = cache.kv, cache.entry, cache.layer0
    stored = kv[kept].copy(), entry.copy(), layer0[:len(entries)].copy()

    def unchanged():
        assert (cache.size, cache.passes, cache.entry_of, cache.decoded()) == (size, passes, entries, held)
        assert all(a is b for a, b in zip((cache.kv, cache.entry, cache.layer0), arrays))
        now = kv[kept], entry, layer0[:len(entries)]
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(now, stored))

    decoder_calls.clear()
    with pytest.raises(SequenceTooLong):  # checked before any pass
        wave_rows(model, cache, too_deep)
    assert decoder_calls == []
    unchanged()
    # a pass that raises after the first one has run two rows
    original = SequenceModel.decoder_all_logits

    def second_pass_fails(self, *args, **kwargs):
        if decoder_calls:
            raise RuntimeError("pass failed")
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SequenceModel, "decoder_all_logits", second_pass_fails)
    with pytest.raises(RuntimeError):
        wave_rows(model, cache, requests)
    assert decoder_calls == [2]  # (9,) and (8,)
    unchanged()
    # the failed call left (9,) undecoded, so its child is refused
    with pytest.raises(ValueError, match="not decoded"):
        wave_rows(model, cache, [(0, (9, 2))])
    unchanged()
    monkeypatch.setattr(SequenceModel, "decoder_all_logits", original)
    for (c, prefix), row in zip(requests + [(0, (9, 2))], np.concatenate(
            [wave_rows(model, cache, requests), wave_rows(model, cache, [(0, (9, 2))])])):
        assert np.max(np.abs(row - prefix_logits(model, contexts[c], [prefix])[0])) < 1e-12
    assert cache.decoded() == held | set(requests) | {(0, (9, 2))}


@pytest.mark.parametrize("layers", [1, 2])
def test_a_node_whose_parent_is_not_decoded_is_refused(layers, decoder_calls):
    # refused before any pass, the store left byte for byte as it was; so is
    # an array that is not 1-D or not of the cache's node ids
    model = tiny_model(vocab_size=11, seed=3, layers=layers)
    cache = NamedTrie([model.encode([3, 4]), model.encode([5])])
    wave_rows_by_depth(model, cache, [(0, ()), (1, ()), (0, (6,)), (1, (7,))])
    orphans = [[(0, (6, 2)), (1, (7, 8, 9))], [(0, (6, 2, 2))], [(1, (8, 1))]]
    for requests in orphans:
        cache.nodes(requests)

    def store():
        return (cache.size, cache.passes, dict(cache.entry_of), cache.layer0.tobytes(),
                *(getattr(cache, name).tobytes() for name in cache._NODE_ARRAYS))

    before = store()
    decoder_calls.clear()
    for requests in orphans:
        with pytest.raises(ValueError, match="not decoded"):
            wave_rows(model, cache, requests)
    for nodes in (cache.nodes(orphans[0])[:, None], [cache.size], [-1]):
        with pytest.raises(ValueError, match="1-D array"):
            model.wave_logits(cache, nodes, lambda *_: None)
    assert decoder_calls == [] and store() == before


# -- kept keys and values give the bits of the chain-input passes -------------


def chain_input_contexts(contexts, counts, d_model):
    """The cross-attention inputs of a wave pass, built context by context:
    the raw contexts, padded with zero rows to the longest, which the pass
    projects; the padding mask; the query layout; each row's slot in it;
    whether each row's context has rows."""
    counts = np.asarray(counts)
    lengths = np.array([c.data.shape[0] for c in contexts])
    keys, slots = lengths.max(), counts.max()
    used = np.arange(slots) < counts[:, None]
    queries = np.where(used, (np.cumsum(counts) - counts)[:, None] + np.arange(slots), 0)
    pieces = []
    for c, length in zip(contexts, lengths):
        pieces.append(c)
        if length < keys:
            pieces.append(Tensor(np.zeros((keys - length, d_model))))
    batch = concat(pieces).reshape(len(contexts), keys, d_model)
    mask = None
    if (lengths < keys).any():
        mask = np.where(np.arange(keys) < lengths[:, None], 0.0, -1e30)[:, None, None, :]
    return batch, mask, queries, np.flatnonzero(used), np.repeat(lengths > 0, counts)[:, None]


class ChainInputReference:
    """The wave pass that kept self-attention inputs, not keys and values:
    each layer projects every row's whole ancestor chain of kept inputs and
    its own, and each pass projects its contexts. `run` decodes one pass of a
    `wave_logits` call, as that call split them, and keeps the inputs of the
    nodes not decoded before the call (a later pass wins)."""

    def __init__(self, model, cache):
        self.model, self.cache, self.inputs = model, cache, {}

    def run(self, nodes: np.ndarray, decoded_before: set) -> np.ndarray:
        cache, cfg, pt = self.cache, self.model.config, self.model.frozen()
        d, n, k = cfg.d_model, len(nodes), int(cache.depth[nodes[0]])
        chains = np.empty((n, k), dtype=np.int64)  # root first
        up = cache.parent[nodes]
        for j in range(k - 1, -1, -1):
            chains[:, j] = up
            up = cache.parent[up]
        groups, counts = np.unique(cache.context[nodes], return_counts=True)
        ctx, ctx_mask, queries, slot_of, sees = chain_input_contexts([cache.contexts[c] for c in groups], counts, d)
        x = pt["tok_emb"][cache.token[nodes]] + pt["tgt_pos"][cache.depth[nodes]]
        kept = np.empty((n, cfg.layers, d))
        for i in range(cfg.layers):
            h = x.layer_norm(pt[f"dec{i}_ln1_g"], pt[f"dec{i}_ln1_b"])
            kept[:, i] = h.data
            q = h.reshape(n, 1, d)
            earlier = np.array([[self.inputs[a][i] for a in chain] for chain in chains.tolist()]).reshape(n, k, d)
            kv = concat([Tensor(earlier), q], axis=1)
            x = x + model_module._attention(pt, f"dec{i}_self", q, kv, cfg.heads).reshape(n, d)
            if ctx.data.shape[-2] > 0:
                h = x.layer_norm(pt[f"dec{i}_ln2_g"], pt[f"dec{i}_ln2_b"])
                cross = model_module._attention(pt, f"dec{i}_cross", h[queries], ctx, cfg.heads, mask=ctx_mask)
                cross = cross.reshape(-1, d)[slot_of]
                x = x + (cross if sees.all() else cross * sees)
            h = x.layer_norm(pt[f"dec{i}_ln3_g"], pt[f"dec{i}_ln3_b"])
            x = x + model_module._feed_forward(pt, f"dec{i}_ff", h)
        x = x.layer_norm(pt["dec_ln_g"], pt["dec_ln_b"])
        for node, row in zip(nodes.tolist(), kept):
            if node not in decoded_before:
                self.inputs[node] = row
        return (x @ pt["tok_emb"].T).data


def random_calls(rng: random.Random, contexts: int, vocab_size: int, steps: int = 6) -> list[list]:
    """(context, prefix) requests for a call per step that grow random tries
    under each context: first the roots, then in each call children of
    nodes decoded before it, two nodes decoded before it, and a duplicate."""
    held = [(c, ()) for c in range(contexts)]
    calls = [list(held)]
    for _ in range(steps):
        asked = [(c, p + (rng.randrange(vocab_size),)) for c, p in rng.sample(held, min(len(held), 9))]
        asked += rng.sample(held, min(len(held), 2)) + asked[:1]
        rng.shuffle(asked)
        calls.append(asked)
        held += sorted(set(asked) - set(held))
    return calls


def same_bits_as_chain_inputs(model, cache, calls) -> ChainInputReference:
    """Runs each list of requests as one `wave_logits` call, and each of its
    passes through the chain-input reference: every row must be the same
    bits. Returns the reference."""
    reference = ChainInputReference(model, cache)
    for requests in calls:
        nodes = cache.nodes(requests)
        decoded = set(np.flatnonzero(cache.entry[:cache.size] >= 0).tolist())
        passes = []
        model.wave_logits(cache, nodes, lambda indices, logits: passes.append((indices.copy(), logits.copy())))
        assert sorted(np.concatenate([i for i, _ in passes]).tolist()) == list(range(len(nodes)))
        for indices, logits in passes:
            assert same_bits(logits, reference.run(nodes[indices], decoded))
    return reference


@pytest.mark.parametrize("layers", [1, 2])
@pytest.mark.parametrize("sources", [[[3, 4, 5, 6]], [[3], [], [7]],
                                     [[9, 2], [], [5, 5, 5, 5, 5, 6], [7]]])
@pytest.mark.parametrize("key_rows", [None, 3])
def test_kept_keys_and_values_give_the_chain_input_bits(monkeypatch, layers, sources, key_rows):
    # contexts of 0, 1 and several tokens (only one-token and empty ones in
    # the second set, whose passes project them as one-row products); rows
    # at depth 0; 3 key rows per pass split every level past depth 0 into
    # one-row passes, whose keys and values a lone-row product pads
    if key_rows is not None:
        monkeypatch.setattr(model_module, "_WAVE_KEY_FLOATS", key_rows * 16)
    model = tiny_model(vocab_size=11, seed=layers + len(sources), layers=layers, heads=2)
    cache = NamedTrie([model.encode(src) for src in sources])
    calls = random_calls(random.Random(len(sources) + 10 * layers), len(sources), 11)
    reference = same_bits_as_chain_inputs(model, cache, calls)
    # what the cache keeps: a two-row product of the inputs the reference kept
    pt = model.frozen()

    def product(row, name):
        return (np.stack([row, row]) @ pt[name].data)[0]

    for node, inputs in reference.inputs.items():
        entry = cache.layer0[cache.entry[node]]
        assert same_bits(entry, np.stack([inputs[0], product(inputs[0], "dec0_self_wk"),
                                          product(inputs[0], "dec0_self_wv")]))
        for i in range(1, layers):
            assert same_bits(cache.kv[node, i - 1], np.stack([product(inputs[i], f"dec{i}_self_wk"),
                                                              product(inputs[i], f"dec{i}_self_wv")]))


def test_a_call_that_raises_leaves_the_kept_keys_values_and_context_stack(monkeypatch, decoder_calls):
    # the failing call's first pass ran after the call had made new table
    # entries; two of its contexts are new to the cache
    model = tiny_model(vocab_size=12, layers=2)
    contexts = [model.encode([3, 4]), model.encode([5, 6, 7]), model.encode([8])]
    cache = NamedTrie(contexts)
    wave_rows_by_depth(model, cache, [(0, ()), (0, (6,)), (0, (6, 7))])
    requests = [(1, ()), (2, ()), (0, (6, 7, 1)), (0, (9,))]
    cache.nodes(requests)

    def state():
        entries = len(cache.entry_of)
        return (cache.size, cache.passes, list(cache.entry_of.items()), cache.decoded(),
                cache.layer0[:entries].tobytes(),
                *(getattr(cache, name)[:cache.size].tobytes() for name in cache._NODE_ARRAYS if name != "kv"),
                cache.kv[[cache.node_of[pair] for pair in cache.decoded()]].tobytes())

    before = state()
    original = SequenceModel.decoder_all_logits

    def second_pass_fails(self, *args, **kwargs):
        if decoder_calls:
            raise RuntimeError("pass failed")
        return original(self, *args, **kwargs)

    decoder_calls.clear()
    monkeypatch.setattr(SequenceModel, "decoder_all_logits", second_pass_fails)
    with pytest.raises(RuntimeError):
        wave_rows(model, cache, requests)
    assert decoder_calls == [2] and state() == before  # the roots' pass ran
    monkeypatch.setattr(SequenceModel, "decoder_all_logits", original)
    got = wave_rows(model, cache, requests)
    fresh = NamedTrie(contexts)
    wave_rows_by_depth(model, fresh, [(0, ()), (0, (6,)), (0, (6, 7))])
    assert same_bits(got, wave_rows(model, fresh, requests))


@pytest.mark.parametrize("layers", [1, 2])
def test_when_a_row_gets_the_same_bits_in_any_pass(layers):
    # a row's bits depend on its pass through three figures alone (module
    # doc): whether the pass has one row, whether some context has two or
    # more of its rows, and its longest context. Each case decodes every
    # root, then the same nodes of context 0 in one pass with others.
    model = tiny_model(vocab_size=11, seed=8, layers=layers, heads=2)
    contexts = [model.encode(src) for src in ([3, 4, 5, 6], [7, 8], [9, 3, 4], [5] * 9, [6])]

    def rows_of(targets, others):
        cache = NamedTrie(contexts)
        wave_rows(model, cache, [(c, ()) for c in range(len(contexts))])
        return wave_rows(model, cache, targets + others)[:len(targets)]

    two, one = [(0, (4,)), (0, (5,))], [(0, (4,))]
    # the same figures: same bits. Several rows, context 0 with two of them,
    # 4 tokens the longest context; then context 0 with the only row of its
    # context beside others
    for targets, cases in ((two, ([(1, (3,))], [(2, (3,)), (2, (6,)), (1, (7,))], [(4, (3,))])),
                           (one, ([(2, (3,)), (4, (5,))], [(4, (3,))]))):
        want = rows_of(targets, cases[-1])
        for others in cases:
            assert same_bits(rows_of(targets, others), want), others
    # other figures may give other bits, within a few units in the last place:
    # a longer context pads context 0; a lone row; two rows of one context
    for targets, others, base in ((two, [(3, (3,))], []), (one, [], [(1, (3,))]),
                                  (one, [(1, (3,)), (1, (4,))], [(1, (3,))])):
        assert np.max(np.abs(rows_of(targets, others) - rows_of(targets, base))) < 1e-12


# -- the head slot: calls on one trie reuse the user-independent head -----------


def cold_logits(model, ctx, trie) -> np.ndarray:
    twin = cold_copy(model)
    assert twin._head_slot is None
    return twin.prefix_logits(ctx, trie)


def slot_model_and_tree(layers: int = 2, seed: int = 6):
    model = tiny_model(vocab_size=11, seed=seed, layers=layers)
    return model, trie_of(random_prefix_tree(random.Random(seed), 11, 12, 6))[0]


@pytest.mark.parametrize("layers", [1, 2])
def test_head_slot_serves_other_contexts_with_the_cold_bits(layers, autograd_ops):
    model, trie = slot_model_and_tree(layers)
    contexts = [model.encode(src) for src in ([3, 4, 5], [7], [], [9, 9, 2, 5, 6])]
    model.prefix_logits(contexts[0], trie)
    slot = model._head_slot
    for ctx in contexts + contexts[::-1]:
        autograd_ops[0] = 0
        rows = model.prefix_logits(ctx, trie)
        hit_ops = autograd_ops[0]
        assert model._head_slot is slot
        autograd_ops[0] = 0
        assert np.array_equal(rows, cold_logits(model, ctx, trie))
        # a hit skips the head's ops: two lookups and their sum, then layer
        # 0's layer norm and residual sum (a trie pass's self-attention runs
        # on arrays, and builds no op)
        assert autograd_ops[0] - hit_ops == 5


@pytest.mark.parametrize("name", ["tok_emb", "tgt_pos", "dec0_ln1_g", "dec0_ln1_b", "dec0_self_wq",
                                  "dec0_self_wk", "dec0_self_wv", "dec0_self_wo"])
def test_an_in_place_change_to_a_head_array_forces_a_recompute(name):
    model, trie = slot_model_and_tree()
    ctx = model.encode([3, 4, 5])
    model.prefix_logits(ctx, trie)
    slot = model._head_slot
    model.params[name].reshape(-1)[1] += 0.25
    rows = model.prefix_logits(ctx, trie)
    assert model._head_slot is not slot
    assert np.array_equal(rows, cold_logits(model, ctx, trie))
    # bytes, not values: -0.0 == 0.0, yet the slot is refilled
    model.params[name].reshape(-1)[1] = 0.0
    model.prefix_logits(ctx, trie)
    slot = model._head_slot
    model.params[name].reshape(-1)[1] = -0.0
    rows = model.prefix_logits(ctx, trie)
    assert model._head_slot is not slot
    assert np.array_equal(rows, cold_logits(model, ctx, trie))


@pytest.mark.parametrize("name", ["dec0_cross_wq", "dec0_cross_wo", "dec0_ln2_g", "dec0_ln3_b",
                                  "dec0_ff_w1", "dec1_ln1_g", "dec1_self_wk", "dec1_cross_wv",
                                  "dec1_ff_b2", "dec_ln_g", "dec_ln_b"])
def test_an_in_place_change_to_a_tail_array_is_seen_at_once(name):
    model, trie = slot_model_and_tree()
    ctx = model.encode([3, 4, 5])
    before = model.prefix_logits(ctx, trie)
    slot = model._head_slot
    model.params[name].reshape(-1)[1] += 0.25
    rows = model.prefix_logits(ctx, trie)
    assert model._head_slot is slot
    assert not np.array_equal(rows, before)
    assert np.array_equal(rows, cold_logits(model, ctx, trie))


def test_head_slot_keys_the_trie():
    model, _ = slot_model_and_tree()
    ctx = model.encode([3, 4])
    prefixes = [(5, 6, 7), (3,), (), (8, 2, 2)]
    trie = trie_of(prefixes)[0]
    first = model.prefix_logits(ctx, trie)
    slot = model._head_slot
    assert np.array_equal(model.prefix_logits(ctx, trie), first) and model._head_slot is slot
    # a second trie with the same nodes misses, and refills with the same bits
    twin = trie_of(prefixes)[0]
    rows = model.prefix_logits(ctx, twin)
    assert model._head_slot is not slot and model._head_slot.key[2] is twin
    assert np.array_equal(rows, first)
    # nodes appended after a call make the next call miss
    slot = model._head_slot
    twin.add([1, 0], [9, 4])
    rows = model.prefix_logits(ctx, twin)
    assert model._head_slot is not slot and len(rows) == twin.size == len(first) + 2
    assert np.array_equal(rows, cold_logits(model, ctx, twin))


def test_a_too_deep_prefix_leaves_the_head_slot_usable(monkeypatch):
    model = tiny_model(vocab_size=12, max_tgt_len=4)
    ctx = model.encode([3])
    trie = trie_of([(5, 5), (6,), (7, 1, 2)])[0]
    model.prefix_logits(ctx, trie)
    slot = model._head_slot
    too_deep = trie_of([(5, 5, 5, 5), (7,)])[0]
    for block_rows in (512, 2):
        monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
        with pytest.raises(SequenceTooLong):
            model.prefix_logits(ctx, too_deep)
        assert model._head_slot is slot
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 512)
    other = model.encode([4, 8])
    assert np.array_equal(model.prefix_logits(other, trie), cold_logits(model, other, trie))
    assert model._head_slot is slot


@pytest.mark.parametrize("layers", [1, 2])
def test_head_slot_covers_tries_larger_than_one_pass(monkeypatch, decoder_calls, layers):
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 8)
    model, _ = slot_model_and_tree(layers)
    prefixes = random_prefix_tree(random.Random(3), 11, 15, 6)
    trie, nodes = trie_of(prefixes)
    contexts = [model.encode(src) for src in ([3, 4], [5, 6, 7], [])]
    model.prefix_logits(contexts[0], trie)
    slot, cold_passes = model._head_slot, list(decoder_calls)
    assert len(cold_passes) > 2 and len(slot.passes) == len(cold_passes)
    for ctx in contexts:
        decoder_calls.clear()
        rows = model.prefix_logits(ctx, trie)
        assert model._head_slot is slot and decoder_calls == cold_passes
        assert np.array_equal(rows, cold_logits(model, ctx, trie))
        assert_rows_match_per_prefix(model, ctx, prefixes, rows[nodes])
    # the plan depends on the pass size, so another size refills the slot
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 5)
    rows = model.prefix_logits(contexts[1], trie)
    assert model._head_slot is not slot
    assert np.array_equal(rows, cold_logits(model, contexts[1], trie))


def test_head_slot_with_no_prefixes():
    model, _ = slot_model_and_tree()
    ctx = model.encode([3])
    trie = model_module.PrefixTrie()
    assert model.prefix_logits(ctx, trie).shape == (0, 11)
    slot = model._head_slot
    assert model.prefix_logits(ctx, trie).shape == (0, 11)
    assert model._head_slot is slot


# -- some rows: `prefix_logits(ctx, trie, rows)` -------------------------------


def catalog_trie(rng: np.random.Generator, vocab_size: int, items: int):
    """The catalog trie (`build_trie`) of `items` distinct random IDs of one
    to five tokens."""
    ids: dict[tuple[int, ...], None] = {}
    while len(ids) < items:
        ids[tuple(int(t) for t in rng.integers(4, vocab_size, size=rng.integers(1, 6)))] = None
    return build_trie(IdRegistry(ids={f"k{i}": TextualId(tokens=tid, text=repr(tid))
                                      for i, tid in enumerate(ids)}, rows=()))


def with_ancestors(trie, nodes) -> np.ndarray:
    """`nodes` and every ancestor of theirs, sorted."""
    picked = np.zeros(trie.size, dtype=bool)
    for node in np.asarray(nodes, dtype=np.int64).tolist():
        while node >= 0 and not picked[node]:
            picked[node] = True
            node = int(trie.parent[node])
    return np.flatnonzero(picked)


@pytest.mark.parametrize("block_rows", [512, 8])
def test_prefix_logits_of_some_rows_are_the_all_rows_bits(monkeypatch, block_rows):
    # random configs, catalogs and row sets: a call that decodes some rows
    # gives each the bits of the call that decodes all, on a slot miss (the
    # first context) and on hits (the others)
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(block_rows)
    for case in range(40):
        heads = int(rng.choice([1, 2, 4]))
        d_model = heads * int(rng.integers(max(1, 8 // heads), 64 // heads + 1))
        model = tiny_model(vocab_size=23, seed=case, d_model=d_model, layers=int(rng.integers(1, 3)),
                           heads=heads, ff_dim=int(rng.integers(4, 65)), max_src_len=64)
        trie = catalog_trie(rng, 23, 1 if case % 8 == 0 else int(rng.integers(1, 61)))
        if case % 2:
            rows = trie.forks
        else:  # random nodes with their ancestors, in a random order, one twice
            rows = rng.permutation(with_ancestors(trie, rng.choice(trie.size, size=rng.integers(1, 4))))
            rows = np.append(rows, rows[0])
        contexts = [model.encode(rng.integers(3, 23, size=n)) for n in (rng.integers(1, 64), 0, rng.integers(1, 64))]
        some, every = cold_copy(model), cold_copy(model)
        for ctx in contexts:
            got = some.prefix_logits(ctx, trie, rows)
            assert same_bits(got, every.prefix_logits(ctx, trie)[rows])


@pytest.mark.parametrize("block_rows", [512, 8])
def test_a_rows_logits_do_not_depend_on_the_rows_beside_it(monkeypatch, block_rows):
    # batch invariance: random configs (widths that are not multiples of 8
    # among them), catalogs, contexts (empty ones among them) and
    # ancestor-closed row sets down to the lone root; each row of a call
    # over some rows has the bytes of its row in the call over every node
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(100 + block_rows)
    for case in range(24):
        heads = int(rng.choice([1, 2, 4]))
        model = tiny_model(vocab_size=19, seed=case, d_model=heads * int(rng.integers(1, 17)),
                           layers=int(rng.integers(1, 3)), heads=heads, ff_dim=int(rng.integers(4, 49)))
        trie = catalog_trie(rng, 19, int(rng.integers(1, 41)))
        ctx = model.encode(rng.integers(3, 19, size=rng.integers(0, 3) * rng.integers(1, 30)))
        every = cold_copy(model).prefix_logits(ctx, trie)
        row_sets = [[0], trie.forks]
        row_sets += [with_ancestors(trie, rng.choice(trie.size, size=rng.integers(1, 6))) for _ in range(4)]
        for rows in row_sets:
            assert same_bits(cold_copy(model).prefix_logits(ctx, trie, rows), every[rows])


@pytest.mark.parametrize("block_rows", [512, 8])
def test_rows_without_their_ancestors_get_the_all_rows_bytes(monkeypatch, block_rows):
    # random configs (one to three layers, widths that are not multiples of
    # 8 among them), catalogs and row sets that leave out ancestors: the
    # call decodes the ancestors only as far as their keys and values, and
    # each given row has the bytes of the all-rows call, on a slot miss and
    # then on hits, empty contexts among them
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(200 + block_rows)
    open_sets = 0
    for case in range(30):
        heads = int(rng.choice([1, 2, 4]))
        model = tiny_model(vocab_size=19, seed=case, d_model=heads * int(rng.integers(1, 17)),
                           layers=int(rng.integers(1, 4)), heads=heads, ff_dim=int(rng.integers(4, 49)))
        trie = catalog_trie(rng, 19, int(rng.integers(1, 41)))
        rows = rng.choice(trie.size, size=rng.integers(1, min(trie.size, 6) + 1), replace=False)
        rows = np.append(rows, rows[0])  # one twice
        open_sets += len(with_ancestors(trie, rows)) > len(np.unique(rows))
        some = cold_copy(model)
        for n in (rng.integers(1, 30), 0, rng.integers(1, 30)):
            ctx = model.encode(rng.integers(3, 19, size=n))
            assert same_bits(some.prefix_logits(ctx, trie, rows), cold_copy(model).prefix_logits(ctx, trie)[rows])
        assert len(some._head_slot.head) == len(with_ancestors(trie, rows))
    assert open_sets > 20


def test_prefix_logits_of_some_rows_refill_the_head_slot_per_row_set():
    model = tiny_model(vocab_size=23, seed=4, layers=2)
    trie = catalog_trie(np.random.default_rng(4), 23, 30)
    ctx = model.encode([3, 5, 7])
    every = model.prefix_logits(ctx, trie)
    for rows in (trie.forks, [0], with_ancestors(trie, [trie.size - 1]), trie.forks, None):
        slot = model._head_slot
        got = model.prefix_logits(ctx, trie, rows)
        assert model._head_slot is not slot  # the key holds the rows
        assert same_bits(got, every if rows is None else every[rows])
        slot = model._head_slot
        assert same_bits(model.prefix_logits(ctx, trie, rows), got) and model._head_slot is slot
        assert len(slot.head) == (trie.size if rows is None else len(with_ancestors(trie, rows)))
    assert model.prefix_logits(ctx, trie, []).shape == (0, 23)


def test_prefix_logits_refuse_rows_that_are_not_node_ids():
    # rows without their ancestors are taken, with the all-rows bits; ids
    # out of range and arrays that are not 1-D raise, with the slot untouched
    model = tiny_model(vocab_size=11, seed=3)
    trie, nodes = trie_of([(5, 6, 7), (3,), (8, 2)])
    ctx = model.encode([3, 4])
    every = cold_copy(model).prefix_logits(ctx, trie)
    for rows in ([0, nodes[0]], [nodes[1]]):
        assert same_bits(cold_copy(model).prefix_logits(ctx, trie, rows), every[rows])
    for rows in ([trie.size], [-1], [[0]]):
        with pytest.raises(ValueError):
            model.prefix_logits(ctx, trie, rows)
    assert model._head_slot is None


def test_a_block_without_given_rows_runs_no_pass(monkeypatch, decoder_calls):
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 8)
    model = tiny_model(vocab_size=11, seed=5, layers=2)
    trie, _ = trie_of(random_prefix_tree(random.Random(2), 11, 15, 6))
    ctx = model.encode([3, 4])
    assert trie.size > 24
    for nodes in ([0], [trie.size - 1], [9, trie.size - 1], range(trie.size)):
        rows = with_ancestors(trie, nodes)
        decoder_calls.clear()
        got = model.prefix_logits(ctx, trie, rows)
        assert len(decoder_calls) == len(np.unique(rows // 8))
        assert same_bits(got, cold_copy(model).prefix_logits(ctx, trie)[rows])


def test_calls_with_a_memo_neither_read_nor_write_the_head_slot():
    # wave calls, which replaced the memo calls, leave the slot alone
    model, trie = slot_model_and_tree()
    prefixes = trie.prefixes(range(trie.size))
    ctx = model.encode([3, 4])
    rows = model.prefix_logits(ctx, trie)
    slot = model._head_slot
    for twin in (model, tiny_model(vocab_size=11, seed=6, layers=2)):
        wave = wave_rows_by_depth(twin, NamedTrie([ctx]), [(0, p) for p in prefixes])
        assert np.max(np.abs(wave - rows)) < 1e-12
    assert model._head_slot is slot
    assert twin._head_slot is None


def test_prefix_logits_capacity():
    model = tiny_model(vocab_size=12, max_tgt_len=4)
    state = model.encode([3])
    prefix_logits(model, state, [(5, 5, 5)])
    with pytest.raises(SequenceTooLong):
        prefix_logits(model, state, [(5,), (5, 5, 5, 5)])


def test_sequence_nll_uniform_zero_weights():
    cfg = ModelConfig(vocab_size=3, d_model=8, layers=1, heads=2, ff_dim=8,
                      max_src_len=8, max_tgt_len=4, seed=0)
    base = SequenceModel.init(cfg)
    zero = SequenceModel(cfg, {k: np.zeros_like(v) for k, v in base.params.items()})
    state = zero.encode([0, 2])
    nll = zero.sequence_nll(state, [2, EOS_ID]).data.item()
    assert abs(nll - 2 * math.log(3)) < 1e-12


def test_sequence_nll_equals_product_of_step_probs():
    model = tiny_model(vocab_size=9, seed=5)
    state = model.encode([3, 4])
    target = [5, 6, EOS_ID]
    nll = model.sequence_nll(state, target).data.item()
    logp = 0.0
    for i, tok in enumerate(target):
        step = log_softmax_rows(prefix_logits(model, state, [target[:i]]))[0]
        logp += step[tok]
    assert abs(math.exp(-nll) - math.exp(logp)) < 1e-12


def test_sequence_nll_requires_eos():
    model = tiny_model(vocab_size=9)
    state = model.encode([3])
    with pytest.raises(ValueError):
        model.sequence_nll(state, [4, 5])


def test_sequence_nll_length_boundary():
    model = tiny_model(vocab_size=9, max_tgt_len=4)
    state = model.encode([3])
    assert np.isfinite(model.sequence_nll(state, [4, 5, 6, EOS_ID]).data.item())
    with pytest.raises(SequenceTooLong):
        model.sequence_nll(state, [4, 5, 6, 7, EOS_ID])


def test_exhaustive_sequence_mass_is_one():
    # all first-EOS-terminated sequences, plus forced stops at capacity,
    # partition the outcome space exactly
    model = tiny_model(vocab_size=4, seed=8, max_tgt_len=3)
    state = model.encode([3])
    capacity = 3
    total = 0.0
    non_eos = [t for t in range(4) if t != EOS_ID]
    for length in range(0, capacity):
        for body in itertools.product(non_eos, repeat=length):
            total += math.exp(-model.sequence_nll(state, list(body) + [EOS_ID]).data.item())
    for body in itertools.product(non_eos, repeat=capacity):
        logp = 0.0
        for i, tok in enumerate(body):
            logp += log_softmax_rows(prefix_logits(model, state, [body[:i]]))[0][tok]
        total += math.exp(logp)
    assert abs(total - 1.0) < 1e-9


def test_backward_zero_grad_for_unused_and_deterministic():
    model = tiny_model(vocab_size=9, seed=6)
    pt = model.trainable()
    loss = model.sequence_nll(model.encode([3, 4], pt), [5, EOS_ID], pt)
    loss.backward()
    first = {k: (None if t.grad is None else t.grad.copy()) for k, t in pt.items()}
    loss.backward()
    for k, t in pt.items():
        if first[k] is None:
            assert t.grad is None
        else:
            assert np.array_equal(t.grad, first[k])
    # source positions beyond the input length never contribute
    assert np.all(first["src_pos"][5:] == 0)


def test_expected_embedding_uniform_and_peaked():
    rng = np.random.default_rng(2)
    emb = Tensor(rng.normal(size=(5, 3)))
    uniform = expected_embedding(Tensor(np.zeros(5)), emb)
    assert np.allclose(uniform.data, emb.data.mean(axis=0), atol=1e-12)
    logits = np.zeros(5)
    logits[3] = 30.0
    peaked = expected_embedding(Tensor(logits), emb)
    assert np.all(np.abs(peaked.data - emb.data[3]) < 1e-9)


def test_expected_embedding_matches_dense_oracle_and_hull():
    rng = np.random.default_rng(4)
    emb = rng.normal(size=(5, 3))
    logits = rng.normal(size=5)
    out = expected_embedding(Tensor(logits), Tensor(emb)).data
    e = np.exp(logits - logits.max())
    oracle = (e / e.sum()) @ emb
    assert np.allclose(out, oracle, atol=1e-12)
    assert np.all(out <= emb.max(axis=0) + 1e-12)
    assert np.all(out >= emb.min(axis=0) - 1e-12)


def per_row_expected_embeddings(logits: Tensor, emb: Tensor) -> Tensor:
    """One op chain per row: the reference for `expected_embedding_rows`."""
    return stack_rows([expected_embedding(logits[i], emb) for i in range(logits.data.shape[0])])


@pytest.mark.parametrize("length", [1, 2, 9])
@pytest.mark.parametrize("vocab_size", [38, 517])
def test_expected_embedding_rows_equals_per_row_chain(length, vocab_size):
    rng = np.random.default_rng(length * 1000 + vocab_size)
    logits = rng.normal(size=(length, vocab_size)) * 4.0
    emb = rng.normal(size=(vocab_size, 16))
    w_rows, w_cols = rng.normal(size=(length, 16)), rng.normal(size=(16, length))
    results = []
    for build in (expected_embedding_rows, per_row_expected_embeddings):
        t_logits, t_emb = Tensor(logits, requires_grad=True), Tensor(emb, requires_grad=True)
        out = build(t_logits, t_emb)
        # a C-ordered and a transposed upstream gradient
        ((out * w_rows).sum() + (out.T * w_cols).sum()).backward()
        results.append((out.data, t_logits.grad, t_emb.grad))
    for got, want in zip(*results):
        assert got.shape == want.shape and np.array_equal(got, want)


def test_expected_embedding_rows_equals_per_row_chain_on_column_major_logits():
    # each row's softmax sums the row as one run, as a per-row chain does,
    # also when the block arrives column-major
    rng = np.random.default_rng(7)
    logits = np.asfortranarray(rng.normal(size=(9, 38)) * 4.0)
    emb = rng.normal(size=(38, 16))
    results = []
    for build in (expected_embedding_rows, per_row_expected_embeddings):
        t_logits = Tensor(logits, requires_grad=True)
        out = build(t_logits, Tensor(emb))
        (out * emb[:9]).sum().backward()
        results.append((out.data, t_logits.grad))
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def reference_adam(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """The per-parameter Adam step `apply_update` replaced: the reference for
    its bits. `state` holds plain `m`/`v` dicts and `step`."""
    state.step += 1
    t = state.step
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param)
        m = state.m.setdefault(name, np.zeros_like(param))
        v = state.v.setdefault(name, np.zeros_like(param))
        m *= beta1
        m += (1 - beta1) * grad
        v *= beta2
        v += (1 - beta2) * grad * grad
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


def test_model_parameters_are_views_of_one_buffer():
    model = tiny_model(vocab_size=15, seed=9)
    arrays = list(model.params.values())
    buffer = arrays[0].base
    assert buffer is not None and buffer.size == sum(a.size for a in arrays)
    assert all(a.base is buffer and a.flags.c_contiguous for a in arrays)
    unpacked = {k: v.copy() for k, v in model.params.items()}
    repacked = SequenceModel(model.config, unpacked)
    assert repacked.param_hash() == model.param_hash()
    assert all(a.base is repacked.params["tok_emb"].base for a in repacked.params.values())
    # views that do not fill their buffer are copied into one of their own
    part = model_module._pack({k: model.params[k] for k in list(model.params)[1:]})
    assert all(a.base is not buffer and a.base.size == sum(p.size for p in part.values())
               for a in part.values())


def test_apply_update_matches_per_parameter_reference(monkeypatch, tmp_path):
    """Packed model and reference loop agree bit for bit over 4 steps with
    absent gradients, parameters larger than one chunk, and a checkpoint
    reload halfway."""
    monkeypatch.setattr(model_module, "_ADAM_CHUNK", 100)
    model = tiny_model(vocab_size=15, seed=9)
    assert model.params["tok_emb"].size > 100
    ref = {k: v.copy() for k, v in model.params.items()}
    opt = AdamState()
    ref_opt = AdamState()  # its plain dicts serve the reference loop
    rng = np.random.default_rng(0)
    names = list(model.params)
    for step in range(4):
        grads = {name: rng.normal(size=p.shape) for i, (name, p) in enumerate(model.params.items())
                 if (i + step) % 3}
        apply_update(model.params, grads, opt, lr=1e-2)
        reference_adam(ref, grads, ref_opt, lr=1e-2)
        if step == 1:
            save_checkpoint(model, opt, "vhash", tmp_path / "half.ckpt")
            model, opt, _ = load_checkpoint(tmp_path / "half.ckpt")
            assert all(opt.m[k].base is None for k in opt.m)  # loaded moments are separate arrays
    assert opt.step == ref_opt.step == 4
    for name in names:
        for arrays, want in zip((model.params, opt.m, opt.v), (ref, ref_opt.m, ref_opt.v)):
            assert np.array_equal(arrays[name], want[name]), name
    m_buffer = opt.m[names[0]].base
    assert all(opt.m[k].base is m_buffer for k in names)


def test_init_params_are_views_of_one_buffer_that_apply_update_accepts():
    cfg = ModelConfig(vocab_size=15, d_model=8, heads=2, ff_dim=8, seed=3)
    model = SequenceModel.init(cfg)
    flat = next(iter(model.params.values())).base
    assert flat.ndim == 1 and flat.size == sum(v.size for v in model.params.values())
    assert all(v.base is flat for v in model.params.values())
    packed = SequenceModel(cfg, {k: v.copy() for k, v in model.params.items()})
    assert model.param_hash() == packed.param_hash()
    apply_update(model.params, {k: np.ones_like(v) for k, v in model.params.items()},
                 AdamState(), lr=1e-3)
    assert model.param_hash() != packed.param_hash()


def test_apply_update_builds_the_layout_once():
    model = tiny_model(vocab_size=15, seed=9)
    opt = AdamState()
    apply_update(model.params, {}, opt, lr=1e-3)
    first_m, first_v = dict(opt.m), dict(opt.v)
    apply_update(model.params, {"tok_emb": np.ones_like(model.params["tok_emb"])}, opt, lr=1e-3)
    assert all(opt.m[k] is first_m[k] and opt.v[k] is first_v[k] for k in model.params)
    assert opt.step == 2 and np.all(opt.m["tok_emb"] != 0)


@pytest.mark.parametrize("pick", [
    lambda params: {k: v.copy() for k, v in params.items()},
    lambda params: dict(list(params.items())[1:]),
    lambda params: dict(reversed(params.items())),
    lambda params: {**params, "tok_emb": params["tok_emb"].copy()},
], ids=["separate_arrays", "part_of_the_buffer", "out_of_order", "one_copied_view"])
def test_apply_update_rejects_arrays_outside_one_buffer(pick):
    model = tiny_model(vocab_size=15, seed=9)
    opt = AdamState()
    apply_update(model.params, {}, opt, lr=1e-3)
    step, m = opt.step, dict(opt.m)
    params = pick(model.params)
    before = {k: v.copy() for k, v in params.items()}
    grads = {k: np.ones_like(v) for k, v in params.items()}
    with pytest.raises(ValueError, match="one float64 buffer"):
        apply_update(params, grads, opt, lr=1e-3)
    assert opt.step == step and opt.m.keys() == m.keys()
    assert all(opt.m[k] is m[k] for k in m)
    assert all(np.array_equal(params[k], before[k]) for k in params)
    with pytest.raises(ValueError, match="one float64 buffer"):
        apply_update(params, grads, AdamState(), lr=1e-3)


def test_adam_zero_grad_is_identity_and_deterministic():
    params = model_module._pack({"w": np.array([1.0, -2.0])})
    state = AdamState()
    apply_update(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], [1.0, -2.0])
    p1, s1 = model_module._pack({"w": np.array([0.5, 0.5])}), AdamState()
    p2, s2 = model_module._pack({"w": np.array([0.5, 0.5])}), AdamState()
    for _ in range(3):
        apply_update(p1, {"w": np.array([0.1, -0.2])}, s1, lr=0.01)
        apply_update(p2, {"w": np.array([0.1, -0.2])}, s2, lr=0.01)
    assert np.array_equal(p1["w"], p2["w"])


def test_adam_single_step_matches_hand_computation():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    grad = 0.3
    params = model_module._pack({"x": np.array([2.0])})
    apply_update(params, {"x": np.array([grad])}, AdamState(), lr=lr)
    m_hat = (1 - b1) * grad / (1 - b1)
    v_hat = (1 - b2) * grad * grad / (1 - b2)
    expected = 2.0 - lr * m_hat / (math.sqrt(v_hat) + eps)
    assert abs(params["x"][0] - expected) < 1e-15


def test_adam_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        apply_update(model_module._pack({"w": np.zeros(3)}), {"w": np.zeros(4)}, AdamState(), lr=0.1)


def test_checkpoint_round_trip(tmp_path):
    model = tiny_model(vocab_size=15, seed=9)
    opt = AdamState()
    pt = model.trainable()
    loss = model.sequence_nll(model.encode([3], pt), [4, EOS_ID], pt)
    loss.backward()
    apply_update(model.params, {k: t.grad for k, t in pt.items()}, opt, lr=1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, opt, "vhash", path)
    loaded, loaded_opt, vocab_hash = load_checkpoint(path, expected_vocab_hash="vhash")
    assert vocab_hash == "vhash"
    assert loaded.config == model.config
    assert loaded.param_hash() == model.param_hash()
    assert loaded_opt.step == opt.step
    assert all(np.array_equal(loaded_opt.m[k], opt.m[k]) for k in opt.m)
    with pytest.raises(VocabularyMismatch):
        load_checkpoint(path, expected_vocab_hash="other")


def rewrite_checkpoint(path, edit):
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def edit_meta(edit):
    """An array edit that applies `edit` to the decoded meta record."""
    def apply(arrays):
        meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
        edit(meta)
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    return apply


@pytest.mark.parametrize("edit,named", [
    (lambda a: a.pop("p:dec_ln_g"), "dec_ln_g"),
    (lambda a: a.update({"p:tok_emb": a["p:tok_emb"][:-1]}), "tok_emb"),
    (lambda a: a.update({"m:enc_ln_b": np.zeros(3)}), "enc_ln_b"),
    (lambda a: a.update({"p:extra": np.zeros(3)}), "extra"),
    (edit_meta(lambda m: m["config"].update(dropout=1)), "dropout"),
    (edit_meta(lambda m: m.pop("adam_step")), "adam_step"),
    (edit_meta(lambda m: m["config"].update(d_model="16")), "int"),
    (edit_meta(lambda m: m["config"].update(heads=3)), "divisible"),
    (edit_meta(lambda m: m.update(config=[1, 2])), "config"),
    (edit_meta(lambda m: m.clear()), "version"),
], ids=["missing", "truncated", "optimizer_shape", "unknown", "meta_unknown_config_key",
        "meta_no_adam_step", "meta_string_d_model", "meta_bad_heads", "meta_config_list",
        "meta_empty"])
def test_checkpoint_with_wrong_parameters_is_rejected(tmp_path, edit, named):
    model = tiny_model(vocab_size=15, seed=9)
    opt = AdamState()
    apply_update(model.params, {}, opt, lr=1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, opt, "vhash", path)
    rewrite_checkpoint(path, edit)
    with pytest.raises(ValueError, match=named) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)

