import math
import random

import numpy as np
import pytest

from textidrec import corpus, evaluation, synth, training
from textidrec import model as model_module
from textidrec.allocator import (AllocatorConfig, allocate_all, generate_user_id, generate_user_ids,
                                 profile_source)
from textidrec.autograd import Tensor, stack_rows
from textidrec.corpus import Dataset, InteractionLog, ItemRecord
from textidrec.model import (AdamState, ModelConfig, SequenceModel, SequenceTooLong, apply_update,
                             expected_embedding)
from textidrec.prompting import (ITEM_PLACEHOLDER, USER_PLACEHOLDER, Template, default_bank, render_prompt,
                                 sample_template)
from textidrec.tokenizer import EOS_ID, PAD_ID, build_vocab
from textidrec.training import (CheckpointBundle, StaleRegistry, TrainConfig, TrainExample,
                                alternate_train, build_train_examples, idgen_example_loss,
                                snapshot_user_ids, splice_embeddings,
                                train_idgen_phase, train_recommender_phase)


def toy_world(n_users=6, n_items=4, seed=3, min_len=4, max_len=5):
    ds = synth.cyclic_dataset(name="toy", n_users=n_users, n_items=n_items, seed=seed,
                              min_len=min_len, max_len=max_len)
    split = corpus.leave_one_out_split(ds)
    bank = default_bank()
    texts = [corpus.flatten_metadata(r) for r in split.items.values()]
    texts += [t.text.replace(ITEM_PLACEHOLDER, " ").replace(USER_PLACEHOLDER, " ") for t in bank]
    vocab = build_vocab(texts)
    return split, vocab, bank


def tiny_pair(vocab, seed=3, **model_kwargs):
    """Untrained (recommender, generator) pair seeded `seed` and `seed + 1`."""
    sizes = dict(d_model=16, layers=1, heads=2, ff_dim=32, max_src_len=128, max_tgt_len=12)
    sizes.update(model_kwargs)
    return (SequenceModel.init(ModelConfig(vocab_size=vocab.size, seed=seed, **sizes)),
            SequenceModel.init(ModelConfig(vocab_size=vocab.size, seed=seed + 1, **sizes)))


def fresh_bundle(split, vocab, seed=5, **model_kwargs):
    rec, idgen = tiny_pair(vocab, seed, **model_kwargs)
    registry = allocate_all(idgen, corpus.item_texts(split.items), vocab,
                            AllocatorConfig(groups=4))
    return CheckpointBundle(rec=rec, rec_opt=AdamState(), idgen=idgen, idgen_opt=AdamState(),
                            registry=registry, vocab_hash=vocab.content_hash())


def reference_recommender_phase(bundle, split, cfg, vocab, bank, alloc_cfg, rng):
    """The recommender phase as per-example graphs: one backward per example,
    the batch's gradients summed and divided by its length, then one Adam
    step per batch."""
    rec, registry = bundle.rec, bundle.registry
    examples = build_train_examples(split)
    user_ids = snapshot_user_ids(bundle.idgen, examples, dict(corpus.item_texts(split.items)),
                                 vocab, alloc_cfg)
    for _ in range(cfg.rec_epochs_per_iter):
        for lo in range(0, len(examples), cfg.batch_size):
            batch = examples[lo:lo + cfg.batch_size]
            sums = {}
            for ex in batch:
                template = sample_template(rng, bank)
                uid = user_ids[ex.history] if template.has_user_slot else None
                prompt = render_prompt(template, uid, [registry.ids[k] for k in ex.history],
                                       vocab, max_src_len=rec.config.max_src_len)
                pt = rec.trainable()
                target = list(registry.ids[ex.target].tokens) + [EOS_ID]
                rec.sequence_nll(rec.encode(prompt.tokens, pt), target, pt).backward()
                for name, t in pt.items():
                    if t.grad is not None:
                        sums[name] = sums[name] + t.grad if name in sums else t.grad
            apply_update(rec.params, {name: g / len(batch) for name, g in sums.items()},
                         bundle.rec_opt, cfg.lr_rec)


@pytest.mark.parametrize("batch_size", [1, 2, 3])
def test_batch_step_matches_per_example_gradient_mean(monkeypatch, batch_size):
    split, vocab, bank = toy_world()
    alloc_cfg = AllocatorConfig(groups=4)
    cfg = TrainConfig(seed=1, rec_epochs_per_iter=2, batch_size=batch_size)
    bundle, reference = fresh_bundle(split, vocab), fresh_bundle(split, vocab)
    steps = []

    def counted(*args, **kwargs):
        steps.append(None)
        return apply_update(*args, **kwargs)

    monkeypatch.setattr(training, "apply_update", counted)
    train_recommender_phase(bundle, split, cfg, vocab, bank, alloc_cfg, random.Random(5))
    reference_recommender_phase(reference, split, cfg, vocab, bank, alloc_cfg, random.Random(5))
    n = len(build_train_examples(split))
    assert len(steps) == cfg.rec_epochs_per_iter * math.ceil(n / batch_size)
    for name, param in bundle.rec.params.items():
        if batch_size == 1:
            assert np.array_equal(param, reference.rec.params[name]), name
        else:
            assert np.max(np.abs(param - reference.rec.params[name])) <= 1e-12, name


def test_build_train_examples_expands_prefixes():
    items = {k: ItemRecord(key=k, metadata=(("name", k),)) for k in "abcd"}
    split = corpus.SplitDataset(
        name="t", items=items,
        train=(InteractionLog(user="u", items=("a", "b", "c")),
               InteractionLog(user="v", items=("d",))),
        valid=(), test=(),
    )
    examples = build_train_examples(split)
    assert examples == [
        TrainExample(user="u", history=("a",), target="b"),
        TrainExample(user="u", history=("a", "b"), target="c"),
    ]


def test_recommender_overfits_single_example():
    split, vocab, bank = toy_world()
    single = corpus.SplitDataset(name="one", items=split.items,
                                 train=(InteractionLog(user="u", items=split.train[0].items[:2]),),
                                 valid=(), test=())
    bundle = fresh_bundle(split, vocab, seed=7)
    # short hand-assigned IDs isolate the optimization path from allocation
    from textidrec.allocator import IdRegistry, TextualId

    words = [w for w in vocab.id_to_token[3:] if w.isalpha()]
    ids = {key: TextualId(tokens=(vocab.token_to_id[words[i]],), text=words[i])
           for i, key in enumerate(split.items)}
    bundle.registry = IdRegistry(ids=ids, rows=(), generator_hash=bundle.idgen.param_hash())
    cfg = TrainConfig(seed=7, rec_epochs_per_iter=200, use_user_id=False, lr_rec=0.01)
    losses = train_recommender_phase(bundle, single, cfg, vocab, bank,
                                     AllocatorConfig(groups=4), random.Random(7))
    target = single.train[0].items[1]
    tokens_per_target = len(bundle.registry.ids[target].tokens) + 1
    assert losses[-1] / tokens_per_target < 0.01


def test_phase_isolation_is_bitwise():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    cfg = TrainConfig(seed=1, rec_epochs_per_iter=1, idgen_epochs_per_iter=1)
    idgen_before = {k: v.copy() for k, v in bundle.idgen.params.items()}
    train_recommender_phase(bundle, split, cfg, vocab, bank, AllocatorConfig(groups=4),
                            random.Random(1))
    assert all(np.array_equal(bundle.idgen.params[k], idgen_before[k]) for k in idgen_before)
    rec_before = {k: v.copy() for k, v in bundle.rec.params.items()}
    train_idgen_phase(bundle, split, cfg, vocab, bank, AllocatorConfig(groups=4),
                      random.Random(2))
    assert all(np.array_equal(bundle.rec.params[k], rec_before[k]) for k in rec_before)


def test_idgen_phase_refreshes_registry_hash():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    old_generator_hash = bundle.registry.generator_hash
    cfg = TrainConfig(seed=1, idgen_epochs_per_iter=1)
    train_idgen_phase(bundle, split, cfg, vocab, bank, AllocatorConfig(groups=4),
                      random.Random(3))
    assert bundle.registry.generator_hash == bundle.idgen.param_hash()
    assert bundle.registry.generator_hash != old_generator_hash


def test_stale_registry_rejected():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    other = SequenceModel.init(ModelConfig(vocab_size=vocab.size, seed=99, d_model=16,
                                           layers=1, heads=2, ff_dim=32,
                                           max_src_len=128, max_tgt_len=12))
    bundle.registry = allocate_all(other, corpus.item_texts(split.items), vocab,
                                   AllocatorConfig(groups=4))
    with pytest.raises(StaleRegistry):
        train_recommender_phase(bundle, split, TrainConfig(), vocab, bank,
                                AllocatorConfig(groups=4), random.Random(0))


def test_phase_determinism():
    results = []
    for _ in range(2):
        split, vocab, bank = toy_world()
        bundle = fresh_bundle(split, vocab)
        cfg = TrainConfig(seed=11, rec_epochs_per_iter=2)
        losses = train_recommender_phase(bundle, split, cfg, vocab, bank,
                                         AllocatorConfig(groups=4), random.Random(11))
        results.append((tuple(losses), bundle.rec.param_hash()))
    assert results[0] == results[1]


def test_splice_embeddings_matches_token_gather():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    registry = bundle.registry
    keys = list(registry.ids)
    template = Template(1, "go {item_ids} stop")
    prompt = render_prompt(template, None, [registry.ids[k] for k in keys[:2]], vocab)
    emb = bundle.rec.frozen()["tok_emb"]
    replacements = {
        si: [emb[int(t)] for t in prompt.tokens[span.start:span.end]]
        for si, span in enumerate(prompt.spans)
    }
    spliced = splice_embeddings(prompt, replacements, emb)
    direct = emb.data[np.array(prompt.tokens)]
    assert np.array_equal(spliced.data, direct)


def test_one_hot_logits_reduce_to_token_loss():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    registry = bundle.registry
    rec = bundle.rec
    keys = list(registry.ids)
    template = Template(1, "go {item_ids} stop")
    prompt = render_prompt(template, None, [registry.ids[k] for k in keys[:3]], vocab)
    target = list(registry.ids[keys[3]].tokens) + [EOS_ID]
    omega = rec.frozen()
    emb = omega["tok_emb"]
    replacements = {}
    for si, span in enumerate(prompt.spans):
        rows = []
        for tok in prompt.tokens[span.start:span.end]:
            logits = np.full(vocab.size, -800.0)
            logits[tok] = 800.0
            rows.append(expected_embedding(Tensor(logits), emb))
        replacements[si] = rows
    spliced = splice_embeddings(prompt, replacements, emb)
    via_embeddings = rec.sequence_nll(rec.encode_embeddings(spliced, omega), target, omega)
    via_tokens = rec.sequence_nll(rec.encode(prompt.tokens, omega), target, omega)
    assert abs(via_embeddings.data.item() - via_tokens.data.item()) <= 1e-9


def test_idgen_loss_gradient_reaches_generator_only():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab, d_model=8, ff_dim=16)
    registry = bundle.registry
    keys = list(registry.ids)
    template = Template(1, "go {item_ids} stop")
    prompt = render_prompt(template, None, [registry.ids[k] for k in keys[:2]], vocab)
    item_text = dict(corpus.item_texts(split.items))
    span_sources = [
        (vocab.encode(item_text[keys[j]], 64), registry.ids[keys[j]].tokens)
        for j in range(2)
    ]
    target = list(registry.ids[keys[2]].tokens) + [EOS_ID]
    phi = bundle.idgen.trainable()
    loss = idgen_example_loss(bundle.idgen, bundle.rec, prompt, span_sources, target, phi)
    loss.backward()
    assert any(t.grad is not None and np.any(t.grad != 0) for t in phi.values())


def per_span_example_loss(idgen, rec, prompt, span_sources, target, phi):
    """`idgen_example_loss` with one generator `encode` and one
    teacher-forced decoder pass per span, and one expected-embedding op
    chain per anchor token: the reference path for the packed pass."""
    omega = rec.frozen()
    emb = omega["tok_emb"]
    replacements = {}
    for si, (src, anchor) in enumerate(span_sources):
        anchor = list(anchor)
        rows = idgen.decoder_all_logits(idgen.encode(src, phi), [PAD_ID] + anchor[:-1], phi)
        replacements[si] = [expected_embedding(rows[i], emb) for i in range(len(anchor))]
    spliced = splice_embeddings(prompt, replacements, emb)
    return rec.sequence_nll(rec.encode_embeddings(spliced, omega), target, omega)


def example_inputs(bundle, split, vocab, n_items, user=False):
    """A prompt over the registry's first `n_items` items (and their
    profile's user ID), its span sources as the generator phase builds them,
    and the next item's ID as the target."""
    registry = bundle.registry
    keys = list(registry.ids)
    item_text = dict(corpus.item_texts(split.items))
    texts = [item_text[k] for k in keys[:n_items]]
    max_src = bundle.idgen.config.max_src_len
    uid = generate_user_id(bundle.idgen, texts, vocab, AllocatorConfig(groups=4)) if user else None
    text = f"{USER_PLACEHOLDER} likes {ITEM_PLACEHOLDER} stop" if user else f"go {ITEM_PLACEHOLDER} stop"
    prompt = render_prompt(Template(1, text), uid, [registry.ids[k] for k in keys[:n_items]], vocab)
    span_sources = [(vocab.encode(item_text[keys[span.index]], max_src), registry.ids[keys[span.index]].tokens)
                    if span.role == "history" else (profile_source(texts, vocab, max_src), uid.tokens)
                    for span in prompt.spans]
    return prompt, span_sources, list(registry.ids[keys[n_items]].tokens) + [EOS_ID]


def loss_and_grads(loss_fn, bundle, prompt, span_sources, target):
    phi = bundle.idgen.trainable()
    loss = loss_fn(bundle.idgen, bundle.rec, prompt, span_sources, target, phi)
    loss.backward()
    return loss.data.item(), {name: t.grad for name, t in phi.items()}


def assert_close_to_per_span(bundle, prompt, span_sources, target, tol=1e-12):
    loss, grads = loss_and_grads(idgen_example_loss, bundle, prompt, span_sources, target)
    ref_loss, ref_grads = loss_and_grads(per_span_example_loss, bundle, prompt, span_sources, target)
    assert abs(loss - ref_loss) <= tol * abs(ref_loss)
    scale = max(np.max(np.abs(g)) for g in ref_grads.values() if g is not None)
    for name, grad in ref_grads.items():
        assert (grad is None) == (grads[name] is None), name
        assert grad is None or np.max(np.abs(grads[name] - grad)) <= tol * scale, name


def test_expected_id_rows_matches_per_row_path_with_fewer_ops(autograd_ops):
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    for n_items in (1, 3):
        prompt, span_sources, target = example_inputs(bundle, split, vocab, n_items)
        results = []
        for loss_fn in (idgen_example_loss, per_span_example_loss):
            phi = bundle.idgen.trainable()
            autograd_ops[0] = 0
            loss = loss_fn(bundle.idgen, bundle.rec, prompt, span_sources, target, phi)
            ops = autograd_ops[0]
            loss.backward()
            results.append((ops, loss.data, {k: t.grad for k, t in phi.items()}))
        (ops, loss, grads), (ref_ops, ref_loss, ref_grads) = results
        anchor_tokens = sum(len(anchor) for _, anchor in span_sources)
        assert ref_ops - ops >= 4 * anchor_tokens
        # one span is a pack of one: the per-span path's bits. Packed spans
        # add masked keys to softmax sums and stack matmul rows, so they
        # agree within 1e-12
        if n_items == 1:
            assert np.array_equal(loss, ref_loss)
        else:
            assert abs(loss.item() - ref_loss.item()) <= 1e-12 * abs(ref_loss.item())
        scale = max(np.max(np.abs(g)) for g in ref_grads.values() if g is not None)
        for name, grad in ref_grads.items():
            assert (grad is None) == (grads[name] is None), name
            if grad is not None and n_items == 1:
                assert np.array_equal(grads[name], grad), name
            elif grad is not None:
                assert np.max(np.abs(grads[name] - grad)) <= 1e-12 * scale, name


@pytest.mark.parametrize("n_items,user", [(2, False), (3, False), (2, True), (3, True)])
def test_packed_pass_matches_per_span_path(n_items, user, decoder_calls):
    split, vocab, _ = toy_world()
    bundle = fresh_bundle(split, vocab, layers=2)
    prompt, span_sources, target = example_inputs(bundle, split, vocab, n_items, user)
    assert len(span_sources) == n_items + user
    decoder_calls.clear()
    assert_close_to_per_span(bundle, prompt, span_sources, target)
    # the packed loss decodes all spans in one generator pass, the reference
    # one pass per span; each then runs the recommender's pass
    assert len(decoder_calls) == 2 + len(span_sources) + 1


def test_a_span_with_an_empty_source_gets_no_cross_attention():
    split, vocab, _ = toy_world()
    bundle = fresh_bundle(split, vocab)
    prompt, span_sources, target = example_inputs(bundle, split, vocab, 3, user=True)
    for at in (0, 2):
        emptied = list(span_sources)
        emptied[at] = ([], emptied[at][1])
        assert_close_to_per_span(bundle, prompt, emptied, target)
    # a one-span example with an empty source is still a pack of one
    prompt, span_sources, target = example_inputs(bundle, split, vocab, 1)
    emptied = [([], span_sources[0][1])]
    assert (loss_and_grads(idgen_example_loss, bundle, prompt, emptied, target)[0]
            == loss_and_grads(per_span_example_loss, bundle, prompt, emptied, target)[0])


@pytest.mark.parametrize("cap", [1, 12, 20])
def test_a_lower_pack_cap_spills_into_more_packs(monkeypatch, decoder_calls, cap):
    split, vocab, _ = toy_world()
    bundle = fresh_bundle(split, vocab)
    prompt, span_sources, target = example_inputs(bundle, split, vocab, 3, user=True)
    lengths = [len(src) for src, _ in span_sources]
    packs, size = 0, 0
    for length in lengths:
        if not packs or size + length > cap:
            packs, size = packs + 1, 0
        size += length
    assert 1 < packs
    monkeypatch.setattr(model_module, "_PREFIX_BLOCK_ROWS", cap)
    assert_close_to_per_span(bundle, prompt, span_sources, target)
    decoder_calls.clear()
    loss_and_grads(idgen_example_loss, bundle, prompt, span_sources, target)
    assert len(decoder_calls) == packs + 1


def test_length_limits_hold_per_span():
    split, vocab, _ = toy_world()
    rec, idgen = tiny_pair(vocab, max_src_len=6, max_tgt_len=4)
    phi, emb = idgen.trainable(), rec.frozen()["tok_emb"]
    sources = [[5, 6, 7, 8, 9, 10], [4] * 6, [7, 7, 7, 7]]
    anchors = [(5, 6, 7, 8), (9, 9, 9, 9), (4, 5, 6, 7)]
    # three sources of 16 rows and anchors of 12 rows fit limits of 6 and 4
    rows = training.expected_id_rows(idgen, phi, list(zip(sources, anchors)), emb)
    assert rows.data.shape == (12, emb.data.shape[1])
    with pytest.raises(SequenceTooLong):
        training.expected_id_rows(idgen, phi, list(zip(sources[:2] + [[4] * 7], anchors)), emb)
    with pytest.raises(SequenceTooLong):
        training.expected_id_rows(idgen, phi, list(zip(sources, anchors[:2] + [(4,) * 5])), emb)


def test_generator_ops_do_not_grow_with_the_span_count(autograd_ops):
    split, vocab, _ = toy_world()
    bundle = fresh_bundle(split, vocab)
    emb = bundle.rec.frozen()["tok_emb"]
    counts = []
    for n_items in (1, 3):
        span_sources = example_inputs(bundle, split, vocab, n_items)[1]
        autograd_ops[0] = 0
        training.expected_id_rows(bundle.idgen, bundle.idgen.trainable(), span_sources, emb)
        counts.append(autograd_ops[0])
    assert counts[1] <= counts[0] + 2


def test_splice_embeddings_takes_a_span_tensor_or_rows():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    registry = bundle.registry
    prompt = render_prompt(Template(1, "go {item_ids} stop"), None,
                           [registry.ids[k] for k in list(registry.ids)[:2]], vocab)
    emb = bundle.rec.frozen()["tok_emb"]
    as_rows = {si: [emb[int(t)] for t in prompt.tokens[span.start:span.end]]
               for si, span in enumerate(prompt.spans)}
    as_tensors = {si: stack_rows(rows) for si, rows in as_rows.items()}
    assert np.array_equal(splice_embeddings(prompt, as_rows, emb).data,
                          splice_embeddings(prompt, as_tensors, emb).data)
    as_tensors[0] = stack_rows(as_rows[0][:-1])
    with pytest.raises(ValueError, match="span 0"):
        splice_embeddings(prompt, as_tensors, emb)


def test_snapshot_user_ids_cached_per_history():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    examples = build_train_examples(split)
    item_text = dict(corpus.item_texts(split.items))
    snap = snapshot_user_ids(bundle.idgen, examples, item_text, vocab, AllocatorConfig(groups=4))
    assert set(snap) == {ex.history for ex in examples}


@pytest.mark.parametrize("perturbed", [False, True])
def test_snapshot_user_ids_equal_per_history_generate_user_id(perturbed, caplog):
    # one wave over every distinct history gives each history the ID a search
    # of its own gives it, on a fresh and on a perturbed generator
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    if perturbed:
        rng = np.random.default_rng(5)
        for array in bundle.idgen.params.values():
            array += rng.normal(scale=0.05, size=array.shape)
    examples = build_train_examples(split)
    item_text = dict(corpus.item_texts(split.items))
    cfg = AllocatorConfig(groups=4, beams_per_group=3)
    with caplog.at_level("INFO", logger="textidrec.training"):
        snap = snapshot_user_ids(bundle.idgen, examples, item_text, vocab, cfg)
    assert list(snap) == list(dict.fromkeys(ex.history for ex in examples))
    for history, uid in snap.items():
        assert uid == generate_user_id(bundle.idgen, [item_text[k] for k in history], vocab, cfg)
    assert f"user IDs for {len(snap)} histories: 1 wave" in caplog.text


def test_alternate_train_saves_iteration_bundles(tmp_path):
    split, vocab, bank = toy_world()
    rec, idgen = tiny_pair(vocab)
    cfg = TrainConfig(seed=3, iterations=2, rec_epochs_per_iter=1, idgen_epochs_per_iter=1)
    bundle = alternate_train(split, vocab, rec, idgen, cfg, AllocatorConfig(groups=4), bank,
                             out_dir=tmp_path)
    assert bundle.iteration == 2
    for n in (1, 2):
        iter_dir = tmp_path / f"iter_{n}"
        for fname in ("rec.ckpt", "idgen.ckpt", "ids.tsv", "metrics.json", "vocab.tsv"):
            assert (iter_dir / fname).exists(), fname
    reloaded, loaded_vocab = CheckpointBundle.load(tmp_path / "iter_2")
    assert loaded_vocab.content_hash() == vocab.content_hash()
    assert reloaded.rec.param_hash() == bundle.rec.param_hash()
    assert reloaded.idgen.param_hash() == bundle.idgen.param_hash()
    assert reloaded.registry.ids == bundle.registry.ids
    assert reloaded.iteration == 2


def test_alternate_train_snapshots_user_ids_once_per_generator(monkeypatch):
    split, vocab, bank = toy_world()
    calls = []

    def counted(model, histories, *args, **kwargs):  # one wave per snapshot
        calls.append((model.param_hash(), len(histories)))
        return generate_user_ids(model, histories, *args, **kwargs)

    monkeypatch.setattr(training, "generate_user_ids", counted)
    cfg = TrainConfig(seed=3, iterations=2, rec_epochs_per_iter=1, idgen_epochs_per_iter=1)
    alternate_train(split, vocab, *tiny_pair(vocab), cfg, AllocatorConfig(groups=4), bank)
    histories = len({ex.history for ex in build_train_examples(split)})
    # the warm-start generator, then one refresh after each generator phase
    assert [n for _, n in calls] == [histories] * 3
    assert len({h for h, _ in calls}) == 3


def test_validation_eval_uses_training_allocator_config(monkeypatch):
    split, vocab, _ = toy_world()
    bank = (Template(1, f"{USER_PLACEHOLDER} : {ITEM_PLACEHOLDER}"),) + default_bank()[1:]
    alloc_cfg = AllocatorConfig(groups=3, beams_per_group=3, length_ranges=((2, 5), (5, 9)))
    seen = []

    def recording(model, histories, vocab, config):
        seen.append((config, len(histories)))
        return generate_user_ids(model, histories, vocab, config)

    monkeypatch.setattr(evaluation, "generate_user_ids", recording)
    cfg = TrainConfig(seed=3, iterations=1, rec_epochs_per_iter=1, idgen_epochs_per_iter=1)
    alternate_train(split, vocab, *tiny_pair(vocab), cfg, alloc_cfg, bank)
    # one wave over the distinct validation histories
    assert seen == [(alloc_cfg, len({pair.history for pair in split.valid}))]


def test_use_user_id_false_restricts_templates():
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    cfg = TrainConfig(seed=2, rec_epochs_per_iter=1, use_user_id=False)
    losses = train_recommender_phase(bundle, split, cfg, vocab, bank,
                                     AllocatorConfig(groups=4), random.Random(2))
    assert len(losses) == 1


def test_alternate_train_allocates_once_per_generator(monkeypatch):
    split, vocab, bank = toy_world()
    hashes = []

    def counted(model, *args, **kwargs):
        hashes.append(model.param_hash())
        return allocate_all(model, *args, **kwargs)

    monkeypatch.setattr(training, "allocate_all", counted)
    cfg = TrainConfig(seed=3, iterations=2, rec_epochs_per_iter=1, idgen_epochs_per_iter=1)
    alternate_train(split, vocab, *tiny_pair(vocab), cfg, AllocatorConfig(groups=4), bank)
    # the warm-start generator, then one refresh after each generator phase
    assert len(hashes) == 3
    assert len(set(hashes)) == 3


def test_alternate_train_without_user_ids_generates_none(monkeypatch):
    split, vocab, bank = toy_world()
    calls = []

    def counted_wave(*args, **kwargs):
        calls.append(args)
        return generate_user_ids(*args, **kwargs)

    monkeypatch.setattr(training, "generate_user_ids", counted_wave)
    monkeypatch.setattr(evaluation, "generate_user_ids", counted_wave)
    cfg = TrainConfig(seed=3, iterations=2, rec_epochs_per_iter=1, idgen_epochs_per_iter=1,
                      use_user_id=False)
    alternate_train(split, vocab, *tiny_pair(vocab), cfg, AllocatorConfig(groups=4), bank)
    assert calls == []


def test_user_span_source_is_the_one_its_snapshot_id_came_from(monkeypatch):
    split, vocab, bank = toy_world()
    bundle = fresh_bundle(split, vocab)
    generated, trained = set(), set()

    def recording_wave(model, histories, vocab, config):
        ids, passes = generate_user_ids(model, histories, vocab, config)
        generated.update((tuple(profile_source(texts, vocab, model.config.max_src_len)), uid.tokens)
                         for texts, uid in zip(histories, ids))
        return ids, passes

    def recording_loss(idgen, rec, prompt, span_sources, *args):
        trained.update((tuple(src), tuple(anchor))
                       for span, (src, anchor) in zip(prompt.spans, span_sources)
                       if span.role == "user")
        return idgen_example_loss(idgen, rec, prompt, span_sources, *args)

    monkeypatch.setattr(training, "generate_user_ids", recording_wave)
    monkeypatch.setattr(training, "idgen_example_loss", recording_loss)
    train_idgen_phase(bundle, split, TrainConfig(seed=1), vocab, bank,
                      AllocatorConfig(groups=4), random.Random(3))
    assert trained and trained <= generated


def test_history_span_sources_follow_the_rendered_items(monkeypatch):
    split, vocab, _ = toy_world(min_len=6, max_len=6)
    bundle = fresh_bundle(split, vocab)
    longest = max(len(tid.tokens) for tid in bundle.registry.ids.values())
    # "go", two IDs and a separator fit; a third history item is dropped
    bundle.rec = SequenceModel.init(ModelConfig(vocab_size=vocab.size, seed=5, d_model=16, layers=1,
                                                heads=2, ff_dim=32, max_src_len=2 + 2 * longest,
                                                max_tgt_len=12))
    by_tokens = {tid.tokens: key for key, tid in bundle.registry.ids.items()}
    item_text = dict(corpus.item_texts(split.items))
    max_src = bundle.idgen.config.max_src_len
    indexes = []

    def recording_loss(idgen, rec, prompt, span_sources, *args):
        history = [(span, src) for span, src in zip(prompt.spans, span_sources) if span.role == "history"]
        indexes.append([span.index for span, _ in history])
        for span, (src, anchor) in history:
            key = by_tokens[prompt.tokens[span.start:span.end]]
            assert tuple(anchor) == bundle.registry.ids[key].tokens
            assert src == vocab.encode(item_text[key], max_src)
        return idgen_example_loss(idgen, rec, prompt, span_sources, *args)

    monkeypatch.setattr(training, "idgen_example_loss", recording_loss)
    train_idgen_phase(bundle, split, TrainConfig(seed=1), vocab, (Template(1, "go {item_ids}"),),
                      AllocatorConfig(groups=4), random.Random(3))
    assert [1, 2] in indexes  # a three-item history rendered without its oldest item


def test_a_failed_save_leaves_no_partial_bundle_and_keeps_the_earlier_one(monkeypatch, tmp_path):
    split, vocab, _ = toy_world()
    bundle = fresh_bundle(split, vocab)
    real_save = training.save_checkpoint
    calls = []

    def failing_second_save(*args):
        calls.append(None)
        if len(calls) == 2:
            raise OSError("disk full")
        real_save(*args)

    def contents(directory):
        return {p.name: p.read_bytes() for p in directory.iterdir()}

    target = tmp_path / "bundle"
    monkeypatch.setattr(training, "save_checkpoint", failing_second_save)
    with pytest.raises(OSError, match="disk full"):
        bundle.save(target, vocab)
    assert list(tmp_path.iterdir()) == []
    monkeypatch.setattr(training, "save_checkpoint", real_save)
    bundle.save(target, vocab)
    earlier = contents(target)
    bundle.iteration = 7
    calls.clear()
    monkeypatch.setattr(training, "save_checkpoint", failing_second_save)
    with pytest.raises(OSError, match="disk full"):
        bundle.save(target, vocab)
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert contents(target) == earlier
    # a save killed between its two renames left only the retired bundle
    target.rename(tmp_path / ".bundle.old")
    calls.clear()
    with pytest.raises(OSError, match="disk full"):
        bundle.save(target, vocab)
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert contents(target) == earlier
    monkeypatch.setattr(training, "save_checkpoint", real_save)
    bundle.save(target, vocab)
    assert [p.name for p in tmp_path.iterdir()] == ["bundle"]
    assert CheckpointBundle.load(target)[0].iteration == 7
