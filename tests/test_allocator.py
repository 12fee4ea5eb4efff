import math
from collections import Counter

import numpy as np
import pytest

from conftest import WORDS, ScriptedModel, make_vocab, tiny_model, vanilla_beam_search
from textidrec import allocator
from textidrec.allocator import (AllocatorConfig, IdRegistry, TextualId, allocate_all,
                                 diverse_beam_search, generate_user_id)
from textidrec.model import log_softmax_rows
from textidrec.tokenizer import EOS_ID, PAD_ID, UNK_ID


def token(vocab, word):
    return vocab.token_to_id[word]


def test_zero_penalty_with_dominant_token_repeats():
    vocab = make_vocab(["red", "blue", "hat"])
    red = token(vocab, "red")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.9, token(vocab, "blue"): 0.1},
        (red,): {EOS_ID: 0.95, red: 0.05},
    })
    out = diverse_beam_search(model, [3], vocab, groups=4, beams_per_group=1,
                              lam=0.0, max_len=4)
    assert [c.text for c in out] == ["red"] * 4


def test_high_penalty_moves_second_group_off_the_top_token():
    vocab = make_vocab(["red", "blue"])
    red, blue = token(vocab, "red"), token(vocab, "blue")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.6, blue: 0.4},
        (red,): {EOS_ID: 1.0},
        (blue,): {EOS_ID: 1.0},
    })
    out = diverse_beam_search(model, [3], vocab, groups=2, beams_per_group=1,
                              lam=10.0, max_len=3)
    assert out[0].text == "red"
    assert out[1].text == "blue"


def test_each_dbs_step_is_at_most_one_decoder_pass(decoder_calls):
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=2)
    state = model.encode([3, 4])
    max_len = 5
    kwargs = dict(groups=3, beams_per_group=3, lam=1.0, max_len=max_len, state=state)
    uncached = diverse_beam_search(model, None, vocab, **kwargs)
    assert 0 < len(decoder_calls) <= max_len
    decoder_calls.clear()
    cache: dict = {}
    assert diverse_beam_search(model, None, vocab, logprob_cache=cache, **kwargs) == uncached
    assert len(decoder_calls) <= max_len
    # the cache holds each pass's block once, not a copy per prefix
    assert len({id(block) for block, _ in cache.values()}) == len(decoder_calls)
    decoder_calls.clear()
    assert diverse_beam_search(model, None, vocab, logprob_cache=cache, **kwargs) == uncached
    assert decoder_calls == []


def sequential_dbs(model, state, *, groups, beams_per_group, lam, max_len, min_len=1):
    """Reference diverse beam search that decodes each group to the end before
    the next one starts, one beam at a time (the allocator's loop before it
    moved to lockstep). Returns each group's best token sequence."""
    chosen_at = [Counter() for _ in range(max_len)]
    results = []
    for g in range(groups):
        beams = [((), 0.0)]
        completed = []
        for t in range(max_len):
            if not beams:
                break
            candidates = []
            step = log_softmax_rows(model.prefix_logits(state, [seq for seq, _ in beams]))
            for (seq, score), logprobs in zip(beams, step):
                adjusted = logprobs.copy()
                adjusted[PAD_ID] = -np.inf
                adjusted[UNK_ID] = -np.inf
                if len(seq) < min_len:
                    adjusted[EOS_ID] = -np.inf
                if g > 0:
                    for tok, count in chosen_at[t].items():
                        adjusted[tok] -= lam * count
                for tok in np.argsort(-adjusted, kind="stable")[:beams_per_group]:
                    if np.isfinite(adjusted[tok]):
                        candidates.append((score + adjusted[tok], seq, int(tok)))
            candidates.sort(key=lambda c: (-c[0], c[1] + (c[2],)))
            beams = []
            for total, seq, tok in candidates[:beams_per_group]:
                chosen_at[t][tok] += 1
                if tok == EOS_ID:
                    completed.append((total, seq))
                else:
                    beams.append((seq + (tok,), total))
        completed.extend((score, seq) for seq, score in beams)
        completed.sort(key=lambda c: (-c[0], c[1]))
        results.append(completed[0][1])
    return results


def _reference_step_logprobs(model, state, prefixes, cache):
    """The allocator's step scorer before it ranked each block once: full
    log-softmax rows, cached as (block, row)."""
    cache = {} if cache is None else cache
    missing = list(dict.fromkeys(p for p in prefixes if p not in cache))
    if missing:
        block = log_softmax_rows(model.prefix_logits(state, missing))
        cache.update((p, (block, row)) for row, p in enumerate(missing))
    return np.stack([block[row] for block, row in map(cache.__getitem__, prefixes)])


def reference_dbs(model, src_ids, vocab, *, groups, beams_per_group, lam, max_len,
                  min_len=1, state=None, logprob_cache=None):
    """Lockstep diverse beam search as it was before ranked candidate lists:
    every group re-sorts its full penalized rows by a stable argsort at
    every step. The reference the ranked-list search must equal."""
    if not 0 <= lam < np.inf or max_len < 1 or min_len < 1:
        raise ValueError("lam must be finite and >= 0, and max_len/min_len >= 1")
    if state is None:
        state = model.encode(src_ids)
    beams = [[((), 0.0)] for _ in range(groups)]
    completed = [[] for _ in range(groups)]
    beam_rows = np.arange(beams_per_group)[:, None]
    for t in range(max_len):
        if not any(beams):
            break
        stack = _reference_step_logprobs(model, state, [seq for group in beams for seq, _ in group],
                                         logprob_cache)
        stack[:, [PAD_ID, UNK_ID]] = -np.inf
        if t < min_len:  # every live beam holds exactly t tokens
            stack[:, EOS_ID] = -np.inf
        counts = np.zeros(stack.shape[1])  # picks at step t by the groups done so far
        row = 0
        for g in range(groups):
            if not beams[g]:
                continue
            n = len(beams[g])
            adjusted = stack[row:row + n] - lam * counts
            row += n
            # stable argsort: equal scores resolve to the smaller token id
            order = (-adjusted).argsort(axis=1, kind="stable")[:, :beams_per_group]
            best = adjusted[beam_rows[:n], order].tolist()
            candidates = [(score + value, seq, token)
                          for (seq, score), values, tokens in zip(beams[g], best, order.tolist())
                          for value, token in zip(values, tokens) if math.isfinite(value)]
            candidates.sort(key=lambda c: (-c[0], c[1], c[2]))
            beams[g] = []
            for total, seq, token in candidates[:beams_per_group]:
                counts[token] += 1
                if token == EOS_ID:
                    completed[g].append((total, seq))
                else:
                    beams[g].append((seq + (token,), total))
    results = []
    for group_beams, done in zip(beams, completed):
        done.extend((score, seq) for seq, score in group_beams)  # hit max_len
        if not done:
            raise allocator.IdSpaceExhausted("no decodable token: vocabulary has no usable entries")
        done.sort(key=lambda c: (-c[0], c[1]))
        best_seq = done[0][1]
        results.append(TextualId(tokens=best_seq, text=vocab.decode(best_seq)))
    return results


def assert_dbs_equals_references(model, vocab, state, groups, beams_per_group, max_len=5):
    """DBS equals `reference_dbs` (IDs) and `sequential_dbs` (token sequences)
    over a grid of penalties and minimum lengths, with and without a shared
    logprob cache."""
    shared: dict = {}
    for lam in (0.0, 0.5, 3.0):
        for min_len in (1, 3):
            kwargs = dict(groups=groups, beams_per_group=beams_per_group, lam=lam,
                          max_len=max_len, min_len=min_len)
            reference = reference_dbs(model, None, vocab, state=state, **kwargs)
            assert [c.tokens for c in reference] == sequential_dbs(model, state, **kwargs), kwargs
            for cache in (None, shared):
                out = diverse_beam_search(model, None, vocab, state=state,
                                          logprob_cache=cache, **kwargs)
                assert out == reference, (kwargs, cache is None)


@pytest.mark.parametrize("groups", [1, 3, 10])
@pytest.mark.parametrize("beams_per_group", [1, 2, 3])
def test_lockstep_dbs_equals_group_sequential_reference(groups, beams_per_group):
    # 6 to 11 tokens: wider than the ranked list of groups * beams_per_group + 1
    # at groups 1, narrower at groups 10
    rng = np.random.default_rng(100 * groups + beams_per_group)
    for _ in range(2):
        vocab_size = int(rng.integers(6, 12))
        vocab = make_vocab(WORDS[: vocab_size - 3])
        model = tiny_model(vocab_size=vocab_size, seed=int(rng.integers(10_000)),
                           d_model=8, heads=2, ff_dim=8, max_tgt_len=6)
        state = model.encode(list(rng.integers(3, vocab_size, size=4)))
        assert_dbs_equals_references(model, vocab, state, groups, beams_per_group)


@pytest.mark.parametrize("groups", [1, 3, 10])
@pytest.mark.parametrize("beams_per_group", [1, 2, 3])
def test_lockstep_dbs_equals_reference_on_exact_ties(groups, beams_per_group):
    # unlisted prefixes are uniform, so most candidates tie exactly and only
    # the tie order (smaller token, then smaller sequence) decides
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, blue = token(vocab, "red"), token(vocab, "blue")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.3, blue: 0.3, EOS_ID: 0.3},
        (red,): {EOS_ID: 0.5, blue: 0.5},
        (blue, red): {EOS_ID: 1.0},
    })
    assert_dbs_equals_references(model, vocab, model.encode([3]), groups, beams_per_group)


@pytest.mark.parametrize("groups", [1, 4])
def test_ranked_dbs_equals_reference_with_fewer_finite_tokens_than_beams(groups):
    # every prefix allows one word and EOS: with EOS banned (min_len 3) a
    # beam has one finite candidate, fewer than beams_per_group
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red = token(vocab, "red")

    class OneWordModel(ScriptedModel):
        def logits(self, state, prefix):
            out = np.full(self.vocab_size, -np.inf)
            out[[red, EOS_ID]] = [0.0, -1.0 * len(prefix)]
            return out

    model = OneWordModel(vocab.size, {})
    assert_dbs_equals_references(model, vocab, model.encode([3]), groups, 3)


def test_a_cache_ranked_narrower_than_the_search_needs_is_refused():
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=4, d_model=8, heads=2, ff_dim=8)
    state = model.encode([3, 4])
    kwargs = dict(lam=1.0, max_len=4, state=state)
    cache: dict = {}
    narrow = diverse_beam_search(model, None, vocab, groups=1, beams_per_group=1,
                                 logprob_cache=cache, **kwargs)
    with pytest.raises(ValueError, match="logprob_cache"):
        diverse_beam_search(model, None, vocab, groups=3, beams_per_group=2,
                            logprob_cache=cache, **kwargs)
    # a wider cache serves a narrower search with the same picks
    wide: dict = {}
    diverse_beam_search(model, None, vocab, groups=3, beams_per_group=2, logprob_cache=wide, **kwargs)
    assert diverse_beam_search(model, None, vocab, groups=1, beams_per_group=1,
                               logprob_cache=wide, **kwargs) == narrow


def test_allocation_equals_one_built_on_reference_dbs(monkeypatch):
    vocab = make_vocab(WORDS[:5])
    model = tiny_model(vocab_size=vocab.size, seed=3)
    cfg = AllocatorConfig(groups=3, beams_per_group=2, lam_max=3.0, length_ranges=((1, 3), (3, 5)))
    texts = [f"{WORDS[i]} {WORDS[i + 1]}" for i in range(3)]
    items = [(f"k{i}", texts[i % 3]) for i in range(60)]
    registry = allocate_all(model, items, vocab, cfg)
    assert any(row.fallback for row in registry.rows)
    monkeypatch.setattr(allocator, "diverse_beam_search", reference_dbs)
    reference = allocate_all(model, items, vocab, cfg)
    assert registry.ids == reference.ids and registry.rows == reference.rows


def test_single_group_equals_vanilla_beam_search():
    rng = np.random.default_rng(0)
    for trial in range(25):
        vocab_size = int(rng.integers(6, 12))
        model = tiny_model(vocab_size=vocab_size, seed=int(rng.integers(10_000)),
                           d_model=8, heads=2, ff_dim=8, max_tgt_len=6)
        words = WORDS[: vocab_size - 3]
        vocab = make_vocab(words)
        src = list(rng.integers(3, vocab_size, size=4))
        dbs = diverse_beam_search(model, src, vocab, groups=1, beams_per_group=3,
                                  lam=1.0, max_len=5)
        reference = vanilla_beam_search(model, src, vocab, beam_width=3, max_len=5)
        assert dbs[0].tokens == reference, f"trial {trial}"


def test_min_len_bans_early_eos():
    vocab = make_vocab(["red", "blue"])
    red = token(vocab, "red")
    model = ScriptedModel(vocab.size, {
        (): {EOS_ID: 0.9, red: 0.1},
        (red,): {EOS_ID: 0.8, red: 0.2},
        (red, red): {EOS_ID: 1.0},
    })
    out = diverse_beam_search(model, [3], vocab, groups=1, beams_per_group=1,
                              lam=1.0, max_len=5, min_len=2)
    assert len(out[0].tokens) >= 2


@pytest.mark.parametrize("lam", [-1.0, float("inf"), float("nan")])
def test_dbs_rejects_a_negative_or_non_finite_penalty(lam):
    vocab = make_vocab(["red", "blue"])
    with pytest.raises(ValueError, match="lam"):
        diverse_beam_search(ScriptedModel(vocab.size, {}), [3], vocab, groups=2,
                            beams_per_group=1, lam=lam, max_len=3)


def test_allocate_escalates_on_duplicate_metadata():
    # both items share one text; the first takes the top sequence, the second
    # must come from a lower-ranked group under the same ladder
    vocab = make_vocab(["red", "blue", "hat"])
    red, blue = token(vocab, "red"), token(vocab, "blue")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.6, blue: 0.4},
        (red,): {EOS_ID: 1.0},
        (blue,): {EOS_ID: 1.0},
    })
    cfg = AllocatorConfig(groups=2, beams_per_group=1, length_ranges=((1, 4),))
    registry = allocate_all(model, [("a", "red hat"), ("b", "red hat")], vocab, cfg)
    assert registry.ids["a"].text == "red"
    assert registry.ids["b"].text == "blue"
    assert registry.rows[0].lam == 1.0 and registry.rows[0].range_index == 0
    stats = registry.stats(lam_init=cfg.lam_init)
    assert stats["fallback_count"] == 0


def test_allocate_distinct_dominant_tokens_no_escalation():
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    texts = ["red", "blue", "hat", "shoe"]

    class PerSourceModel(ScriptedModel):
        def logits(self, state, prefix):
            tok = state.src[0]
            probs = np.full(self.vocab_size, 1e-9)
            if prefix:
                probs[EOS_ID] = 1.0
            else:
                probs[tok] = 1.0
            return np.log(probs / probs.sum())

    scripted = PerSourceModel(vocab.size, {})
    items = [(f"item_{w}", w) for w in texts]
    registry = allocate_all(scripted, items, vocab, AllocatorConfig(groups=2, beams_per_group=1))
    assert [registry.ids[k].text for k, _ in items] == texts
    stats = registry.stats(lam_init=1.0)
    assert stats["fraction_lambda_escalated"] == 0.0
    assert stats["fraction_length_extended"] == 0.0


def test_allocate_output_is_unique_and_complete():
    vocab = make_vocab(WORDS[:16])
    model = tiny_model(vocab_size=vocab.size, seed=11, max_tgt_len=12)
    items = [(f"k{i}", f"{WORDS[i % 4]} {WORDS[(i + 1) % 4]}") for i in range(12)]
    registry = allocate_all(model, items, vocab, AllocatorConfig(groups=4))
    assert len(registry.ids) == 12
    assert len({t.text for t in registry.ids.values()}) == 12
    for row in registry.rows:
        tid = registry.ids[row.key]
        assert 1 <= len(tid.tokens)
        assert all(tok >= 3 for tok in tid.tokens)


def test_allocate_length_stays_in_active_range():
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=2, max_tgt_len=12)
    cfg = AllocatorConfig(groups=2, length_ranges=((2, 5), (5, 8)))
    items = [(f"k{i}", WORDS[i % 5]) for i in range(8)]
    registry = allocate_all(model, items, vocab, cfg)
    for row in registry.rows:
        if row.fallback:
            continue
        lo, hi = cfg.length_ranges[row.range_index]
        assert lo <= len(registry.ids[row.key].tokens) <= hi - 1


def test_allocate_fallback_is_recorded_not_silent(caplog):
    # vocabulary with two usable tokens cannot give six items unique IDs of
    # length <= 2; the ordinal fallback must kick in and be reported
    vocab = make_vocab(["red", "blue"])
    model = tiny_model(vocab_size=vocab.size, seed=1)
    cfg = AllocatorConfig(groups=2, beams_per_group=2, lam_max=2.0, length_ranges=((1, 3),))
    items = [(f"k{i}", "red blue") for i in range(8)]
    with caplog.at_level("WARNING"):
        registry = allocate_all(model, items, vocab, cfg)
    assert len({t.text for t in registry.ids.values()}) == 8
    stats = registry.stats(lam_init=cfg.lam_init)
    assert stats["fallback_count"] > 0
    assert any("fallback" in record.message for record in caplog.records)
    assert any(row.fallback for row in registry.rows)


def test_registry_with_fallback_ids_round_trips(tmp_path):
    vocab = make_vocab(["red", "blue"])
    model = tiny_model(vocab_size=vocab.size, seed=1)
    cfg = AllocatorConfig(groups=2, beams_per_group=2, lam_max=2.0, length_ranges=((1, 3),))
    registry = allocate_all(model, [(f"k{i}", "red blue") for i in range(8)], vocab, cfg)
    assert any(row.fallback for row in registry.rows)
    path = tmp_path / "ids.tsv"
    registry.save_tsv(path)
    loaded = IdRegistry.load_tsv(path, vocab)
    assert loaded.ids == registry.ids and loaded.rows == registry.rows


def test_registry_tsv_round_trip_bit_exact(tmp_path):
    vocab = make_vocab(WORDS[:12])
    model = tiny_model(vocab_size=vocab.size, seed=5)
    items = [(f"k{i}", f"{WORDS[i % 6]} {WORDS[(i + 2) % 6]}") for i in range(9)]
    registry = allocate_all(model, items, vocab, AllocatorConfig(groups=4))
    path = tmp_path / "ids.tsv"
    registry.save_tsv(path)
    first_bytes = path.read_bytes()
    loaded = IdRegistry.load_tsv(path, vocab)
    assert loaded.ids == registry.ids
    assert loaded.rows == registry.rows
    assert loaded.generator_hash == registry.generator_hash
    assert loaded.stats(lam_init=1.0) == registry.stats(lam_init=1.0)
    loaded.save_tsv(path)
    assert path.read_bytes() == first_bytes


@pytest.mark.parametrize("row,reason", [
    ("k0\tdelta\t1.0\t0", "key 'k0' already on line 2"),
    ("k2\talfa bravo\t1.0\t0", "ID text 'alfa bravo' already on line 2"),
    ("k2\tdelta zulu\t1.0\t0", "outside the vocabulary"),
    ("k2\t<unk>\t1.0\t0", "outside the vocabulary"),
    ("k2\t\t1.0\t0", "empty ID text"),
    ("k2\tDelta\t1.0\t0", "does not decode back"),
    ("k2\tdelta  echos\t1.0\t0", "does not decode back"),
    ("k2\tdelta <eos>\t1.0\t0", "does not decode back"),
    ("k2\tdelta\t1.0", "expected 4 tab-separated fields"),
    ("k2\tdelta\t1.0\t0\t0", "expected 4 tab-separated fields"),
    ("k2 delta 1.0 0", "expected 4 tab-separated fields"),
    ("k2\tdelta\tbig\t0", "must be a float"),
    ("k2\tdelta\t1.0\t0.5", "an int"),
    ("k2\tdelta\tnan\t0", "not finite"),
    ("k2\tdelta\t-inf\t0", "not finite"),
    ("k2\tdelta\t1.0\t-2", "below -1"),
])
def test_registry_load_rejects_a_corrupt_row_naming_file_and_line(tmp_path, row, reason):
    vocab = make_vocab(WORDS[:6])
    path = tmp_path / "ids.tsv"
    path.write_text(f"#generator_hash=-\nk0\talfa bravo\t1.0\t0\nk1\tcoral\t2.0\t-1\n{row}\n")
    with pytest.raises(ValueError) as caught:
        IdRegistry.load_tsv(path, vocab)
    assert str(caught.value).startswith(f"{path}:4: ") and reason in str(caught.value)


def test_registry_content_hash_tracks_id_changes():
    a = TextualId(tokens=(3,), text="red")
    b = TextualId(tokens=(4,), text="blue")
    reg1 = IdRegistry(ids={"k": a}, rows=())
    reg2 = IdRegistry(ids={"k": a}, rows=())
    reg3 = IdRegistry(ids={"k": b}, rows=())
    assert reg1.content_hash() == reg2.content_hash()
    assert reg1.content_hash() != reg3.content_hash()


def test_generate_user_id_deterministic_and_unregistered():
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=4)
    cfg = AllocatorConfig()
    one = generate_user_id(model, [f"{WORDS[0]} {WORDS[1]}", f"{WORDS[2]} {WORDS[3]}"], vocab, cfg)
    two = generate_user_id(model, [f"{WORDS[0]} {WORDS[1]}", f"{WORDS[2]} {WORDS[3]}"], vocab, cfg)
    assert one == two
    single = generate_user_id(model, [f"{WORDS[4]} {WORDS[5]}"], vocab, cfg)
    assert len(single.tokens) >= 1


def test_generate_user_id_truncates_to_encoder_limit():
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=4, max_src_len=6)
    cfg = AllocatorConfig()
    long_history = [f"{WORDS[i % 8]} {WORDS[(i + 1) % 8]}" for i in range(20)]
    full = generate_user_id(model, long_history, vocab, cfg)
    profile = "; ".join(long_history)
    truncated_text = vocab.decode(vocab.encode(profile, 6))
    pre_truncated = generate_user_id(model, [truncated_text], vocab, cfg)
    assert full == pre_truncated


def test_config_validation():
    with pytest.raises(ValueError):
        AllocatorConfig(groups=0)
    with pytest.raises(ValueError):
        AllocatorConfig(lam_init=5.0, lam_max=1.0)
    with pytest.raises(ValueError):
        AllocatorConfig(length_ranges=((5, 3),))
    with pytest.raises(ValueError):
        AllocatorConfig(length_ranges=((1, 10), (5, 12)))


@pytest.mark.parametrize("kwargs", [dict(lam_step=0.0), dict(lam_step=-1.0), dict(length_ranges=())])
def test_config_rejects_a_ladder_that_cannot_climb(kwargs):
    with pytest.raises(ValueError):
        AllocatorConfig(**kwargs)
