import itertools
import json
import math
import random

import numpy as np
import pytest

from conftest import tiny_model
from textidrec import model as model_module
from textidrec.autograd import Tensor, concat, stack_rows
from textidrec.model import (AdamState, ModelConfig, SequenceModel, SequenceTooLong,
                             ShapeMismatch, VocabularyMismatch, apply_update,
                             expected_embedding, expected_embedding_rows, load_checkpoint,
                             log_softmax_rows, save_checkpoint)
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
    row = model.prefix_logits(state, [[6]])[0]
    assert row.shape == (17,)
    assert np.all(np.isfinite(row))
    z = row - row.max()
    probs = np.exp(z) / np.exp(z).sum()
    assert abs(probs.sum() - 1.0) < 1e-12


def test_decoder_prefix_sensitivity_and_capacity():
    model = tiny_model(vocab_size=12, max_tgt_len=4)
    state = model.encode([3])
    empty, extended = model.prefix_logits(state, [[], [5]])
    assert not np.allclose(empty, extended)
    with pytest.raises(SequenceTooLong):
        model.prefix_logits(state, [[5, 5, 5, 5]])


def test_explicit_chain_parents_equal_causal_decoding():
    model = tiny_model(vocab_size=12, seed=3, layers=2)
    state = model.encode([3, 4])
    ids = [0, 5, 6, 7]
    causal = model.decoder_all_logits(state, ids).data
    chain = model.decoder_all_logits(state, ids, parents=[-1, 0, 1, 2]).data
    assert np.array_equal(causal, chain)
    with pytest.raises(ValueError):
        model.decoder_all_logits(state, ids, parents=[-1, 2, 1, 2])


def loop_tree_layout(parents):
    """The row loop `_tree_layout` replaced: the reference for its depth and mask."""
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


@pytest.mark.parametrize("n", [1, 2, 3, 17, 100, 333, 512])
@pytest.mark.parametrize("p_chain", [0.0, 0.6, 0.9])
def test_tree_layout_matches_row_loop(n, p_chain):
    rng = np.random.default_rng(n)
    for _ in range(3):
        parents = random_forest(rng, n, p_chain)
        depth, mask = model_module._tree_layout(parents)
        want_depth, want_mask = loop_tree_layout(parents)
        assert np.array_equal(depth, want_depth)
        assert np.array_equal(mask, want_mask)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 24])
def test_chain_layout_is_the_tree_layout_of_a_chain(n):
    chain = np.arange(n) - 1
    for depth, mask in (model_module._chain_layout(n), model_module._tree_layout(chain)):
        want_depth, want_mask = loop_tree_layout(chain)
        assert np.array_equal(depth, want_depth)
        assert np.array_equal(mask, want_mask)


@pytest.mark.parametrize("parents", [[0], [-1, 1], [-1, 0, 3, 1], [-1, 2, 1, 2]])
def test_tree_layout_rejects_parent_after_child(parents):
    with pytest.raises(ValueError) as want:
        loop_tree_layout(parents)
    with pytest.raises(ValueError) as got:
        model_module._tree_layout(np.array(parents))
    assert str(got.value) == str(want.value)


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
        _, mask = model_module._tree_layout(np.array([-1, 0, 1, 0, 3]))
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


def chain_attention(pt, prefix, q_in, kv_in, heads, mask=None):
    """Attention as the 17-op chain `_attention` fuses into one node: the
    reference for its bits."""
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


def chain_feed_forward(pt, prefix, x):
    """The 5-op chain `_feed_forward` fuses into one node: the reference for
    its bits."""
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
            "tree": model_module._tree_layout(np.array([-1, 0, 1, 0, 3]))[1]}[kind]

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


def test_forward_pass_op_counts(autograd_ops):
    """Guards the per-pass op budget at the default config: each attention
    block, feed-forward block and layer norm is one op, so an encode builds
    16 and a two-layer decoder pass 24; splitting any block back into its op
    chain would break these bounds."""
    model = SequenceModel.init(ModelConfig(vocab_size=20))
    for params in (None, model.trainable()):
        autograd_ops[0] = 0
        state = model.encode([3, 4, 5, 6, 7], params)
        assert autograd_ops[0] <= 20
        autograd_ops[0] = 0
        model.decoder_all_logits(state, [0, 5, 6], params)
        assert autograd_ops[0] <= 30


def random_prefix_tree(rng: random.Random, vocab_size: int, n_seqs: int,
                       max_len: int) -> list[tuple[int, ...]]:
    """Every prefix of a few random token sequences, shuffled."""
    seqs = [tuple(rng.randrange(vocab_size) for _ in range(rng.randint(0, max_len)))
            for _ in range(n_seqs)]
    prefixes = sorted({s[:k] for s in seqs for k in range(len(s) + 1)})
    rng.shuffle(prefixes)
    return prefixes


def assert_rows_match_per_prefix(model, state, prefixes) -> None:
    rows = model.prefix_logits(state, prefixes)
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


def test_prefix_logits_unordered_duplicated_and_without_ancestors():
    model = tiny_model(vocab_size=11, seed=4)
    state = model.encode([3, 7])
    prefixes = [(5, 6, 7), (3,), (5, 6, 7), (), (8, 2), (3,)]
    assert_rows_match_per_prefix(model, state, prefixes)
    rows = model.prefix_logits(state, prefixes)
    assert np.array_equal(rows[0], rows[2]) and np.array_equal(rows[1], rows[5])
    assert model.prefix_logits(state, []).shape == (0, 11)


def test_prefix_logits_across_row_blocks(monkeypatch, decoder_calls):
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", 8)
    model = tiny_model(vocab_size=11, seed=5, layers=2)
    state = model.encode([3, 4])
    prefixes = random_prefix_tree(random.Random(2), 11, 15, 6)
    model.prefix_logits(state, prefixes)
    tree_passes = list(decoder_calls)
    assert len(tree_passes) > 1 and max(tree_passes) <= 8
    assert_rows_match_per_prefix(model, state, prefixes)


def test_prefix_logits_capacity():
    model = tiny_model(vocab_size=12, max_tgt_len=4)
    state = model.encode([3])
    model.prefix_logits(state, [(5, 5, 5)])
    with pytest.raises(SequenceTooLong):
        model.prefix_logits(state, [(5,), (5, 5, 5, 5)])


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
        step = log_softmax_rows(model.prefix_logits(state, [target[:i]]))[0]
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
            logp += log_softmax_rows(model.prefix_logits(state, [body[:i]]))[0][tok]
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

