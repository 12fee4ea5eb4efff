import hashlib
import logging
import math
import random
from collections import Counter

import numpy as np
import pytest

from conftest import WORDS, ScriptedModel, make_vocab, prefix_logits, tiny_model, vanilla_beam_search
from textidrec import allocator, corpus, prompting, synth, tokenizer, training
from textidrec.allocator import (AllocatorConfig, IdRegistry, TextualId, allocate_all,
                                 diverse_beam_search, generate_user_id)
from textidrec import model as model_module
from textidrec.model import ModelConfig, SequenceModel, SequenceTooLong, log_softmax_rows
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
    cache = allocator.LogprobCache()
    stored, store = [], cache.store
    cache.store = lambda nodes, *ranked: (stored.extend(nodes.tolist()), store(nodes, *ranked))
    assert diverse_beam_search(model, None, vocab, logprob_cache=cache, **kwargs) == uncached
    assert len(decoder_calls) <= max_len
    # the cache ranks each decoded node once, into that node's row
    assert sorted(stored) == np.flatnonzero(cache.entry[:cache.size] >= 0).tolist()
    assert len(stored) == sum(decoder_calls)
    decoder_calls.clear()
    assert diverse_beam_search(model, None, vocab, logprob_cache=cache, **kwargs) == uncached
    assert decoder_calls == []


def test_each_dbs_pass_after_step_0_decodes_at_most_the_beams(decoder_calls):
    # the search's memo holds every earlier step's rows, so a pass decodes
    # only the live beams' new prefixes
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=2, layers=2)
    groups, beams_per_group = 3, 3
    diverse_beam_search(model, [3, 4], vocab, groups=groups, beams_per_group=beams_per_group,
                        lam=1.0, max_len=8, min_len=6)
    assert decoder_calls[0] == 1 and len(decoder_calls) == 8
    assert max(decoder_calls[1:]) <= groups * beams_per_group


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
            step = log_softmax_rows(prefix_logits(model, state, [seq for seq, _ in beams]))
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
        block = log_softmax_rows(prefix_logits(model, state, missing))
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
    shared = allocator.LogprobCache()
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


class ReferenceSearch:
    """One diverse beam search stepped the way `allocator` did before its
    step ran as array operations over a wave: each beam walks its ranked
    list in Python, with a penalty dict and tuple sort keys, and stops once
    it has seen `beams_per_group` unpenalized tokens. A beam is (prefix,
    score). `cache` maps a prefix to ((log-probs, ids, kept), row) of a
    ranked block. The reference `_Wave.step` must equal."""

    def __init__(self, cache: dict, *, groups, beams_per_group, lam, max_len, min_len, vocab_size):
        self.cache = cache
        self.beams_per_group, self.lam, self.max_len, self.min_len = beams_per_group, lam, max_len, min_len
        self.width = min(vocab_size, groups * beams_per_group + 1)
        self.beams = [[((), 0.0)] for _ in range(groups)]
        self.completed = [[] for _ in range(groups)]
        self.penalty_free = True  # no beam has kept a penalized token so far
        self.t = 0

    def live(self) -> bool:
        return self.t < self.max_len and any(self.beams)

    def missing(self) -> list[tuple[int, ...]]:
        """The live prefixes the cache lacks, each once, in beam order."""
        return [seq for seq in dict.fromkeys(seq for group in self.beams for seq, _ in group)
                if seq not in self.cache]

    def step(self) -> None:
        beams, lam, beams_per_group, width = self.beams, self.lam, self.beams_per_group, self.width
        ranked = []
        for seq, _ in (beam for group in beams for beam in group):
            (values, tokens, kept), row = self.cache[seq]
            ranked.append((values[row * kept:row * kept + width], tokens[row * kept:row * kept + width]))
        ranked = iter(ranked)
        counts = {}  # picks at step t by the groups done so far
        # token -> lam * count; EOS is banned while every live beam (all t long) is short
        penalty = {EOS_ID: math.inf} if self.t < self.min_len else {}
        cost_of = penalty.get
        for g, group in enumerate(beams):
            if not group:
                continue
            candidates = []
            for (seq, score), (values, tokens) in zip(group, ranked):
                picks, free = [], 0  # (-penalized value, token); unpenalized ones seen
                for value, token in zip(values, tokens):
                    cost = cost_of(token)
                    if cost is None:
                        picks.append((-value, token))
                        free += 1
                        if free == beams_per_group:
                            break
                    else:
                        picks.append((-(value - cost), token))
                if free < len(picks):
                    picks.sort()
                    if self.penalty_free:
                        self.penalty_free = all(cost_of(token) is None for _, token in picks[:beams_per_group])
                candidates += [(-(score - negative), seq, token)
                               for negative, token in picks[:beams_per_group] if math.isfinite(negative)]
            candidates.sort()
            beams[g] = []
            for negative, seq, token in candidates[:beams_per_group]:
                counts[token] = counts.get(token, 0) + 1
                penalty[token] = lam * counts[token]
                if token == EOS_ID:
                    self.completed[g].append((-negative, seq))
                else:
                    beams[g].append((seq + (token,), -negative))
        self.t += 1


def random_ranked_row(rng: random.Random, vocab_size: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """A ranked row as `allocator._ranked` lays one out, of values drawn
    from a few levels so that many tie; a tenth of the rows are all -inf."""
    levels = [-np.inf] if rng.random() < 0.1 else [-np.inf, -3.0, -2.0, -1.5, -1.0, -1.0, -0.5]
    row = np.array([rng.choice(levels) for _ in range(vocab_size)])
    row[[PAD_ID, UNK_ID]] = -np.inf
    order = (-row).argsort(kind="stable")[:width]
    return row[order], order.astype(np.int32)


def assert_wave_steps_like_the_reference(block_of, searches, **kwargs):
    """Step a `_Wave` of `searches` searches and as many `ReferenceSearch`es
    on the ranked rows `block_of(search, prefix)` gives, and compare after
    every step: each group's beams and completions (prefixes, and totals as
    bits) and `penalty_free`."""
    cache = allocator.LogprobCache()
    wave = allocator._Wave(cache, [cache.new_root(None) for _ in range(searches)], **kwargs)
    references = [ReferenceSearch({}, **kwargs) for _ in range(searches)]
    blocks = {}

    def block(s, prefix):
        if (s, prefix) not in blocks:
            blocks[s, prefix] = block_of(s, prefix)
        return blocks[s, prefix]

    while wave.t < wave.max_len and wave.live.any():
        nodes = wave.missing()
        ranked = [block(s, prefix) for s, prefix in zip(cache.context[nodes].tolist(), cache.prefixes(nodes))]
        if ranked:
            cache.store(nodes, np.stack([v for v, _ in ranked]), np.stack([t for _, t in ranked]))
        wave.step()
        for s, reference in enumerate(references):
            if reference.live():
                for prefix in reference.missing():
                    values, tokens = block(s, prefix)
                    reference.cache[prefix] = ((values.tolist(), tokens.tolist(), len(values)), 0)
                reference.step()
        groups, beams = wave.node.shape[1:]
        for s, reference in enumerate(references):
            assert bool(wave.penalty_free[s]) == reference.penalty_free, kwargs
            for g in range(groups):
                live = [b for b in range(beams) if wave.live[s, g, b]]
                got = list(zip(cache.prefixes(wave.node[s, g, live]), [x.hex() for x in wave.score[s, g, live]]))
                assert got == [(seq, score.hex()) for seq, score in reference.beams[g]], kwargs
                done = [(float(total).hex(), prefix) for searched, group, totals, nodes in wave.done if group == g
                        for total, prefix in zip(totals[searched == s], cache.prefixes(nodes[searched == s]))]
                assert done == [(score.hex(), seq) for score, seq in reference.completed[g]], kwargs
    assert not any(reference.live() for reference in references)


@pytest.mark.parametrize("seed", range(4))
def test_the_array_step_equals_the_reference_step_on_random_ranked_rows(seed):
    # ties, all -inf rows, lam 0, EOS bans (min_len up to 3) and groups whose
    # beams all ended, over waves of one to three searches
    rng = random.Random(seed)
    for _ in range(30):
        vocab_size, groups, beams_per_group = rng.randint(5, 12), rng.randint(1, 4), rng.randint(1, 3)
        width = min(vocab_size, groups * beams_per_group + 1)
        assert_wave_steps_like_the_reference(
            lambda s, prefix: random_ranked_row(rng, vocab_size, width), rng.randint(1, 3), groups=groups,
            beams_per_group=beams_per_group, lam=rng.choice([0.0, 0.5, 1.0, 3.0]), max_len=rng.randint(1, 5),
            min_len=rng.randint(1, 3), vocab_size=vocab_size)


@pytest.mark.parametrize("groups", [1, 3, 10])
def test_the_array_step_equals_the_reference_step_on_exact_ties(groups):
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, blue = token(vocab, "red"), token(vocab, "blue")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.3, blue: 0.3, EOS_ID: 0.3},
        (red,): {EOS_ID: 0.5, blue: 0.5},
        (blue, red): {EOS_ID: 1.0},
    })
    for beams_per_group in (1, 2, 3):
        width = min(vocab.size, groups * beams_per_group + 1)
        for lam, min_len in ((0.0, 1), (1.0, 2), (5.0, 1)):
            assert_wave_steps_like_the_reference(
                lambda s, prefix: tuple(a[0] for a in allocator._ranked(model.logits(None, prefix)[None], width)),
                2, groups=groups, beams_per_group=beams_per_group, lam=lam, max_len=4, min_len=min_len,
                vocab_size=vocab.size)


def test_every_ranked_token_gives_the_picks_of_the_walk():
    # the walk stops after beams_per_group unpenalized tokens; every token past
    # that point has a value no higher, a larger token on an equal value, and
    # a penalty never raises it, so sorting all `width` of them keeps the same
    rng = random.Random(0)
    for _ in range(3000):
        vocab_size, beams_per_group = rng.randint(3, 12), rng.randint(1, 4)
        values, tokens = random_ranked_row(rng, vocab_size, rng.randint(1, vocab_size))
        penalty = {t: rng.choice([0.0, 0.5, 1.0, 2.0, math.inf])
                   for t in rng.sample(range(vocab_size), rng.randint(0, vocab_size))}
        picks, free = [], 0
        for value, t in zip(values.tolist(), tokens.tolist()):
            picks.append((-(value - penalty[t]) if t in penalty else -value, t))
            free += t not in penalty
            if free == beams_per_group:
                break
        every = sorted((-(value - penalty.get(t, 0.0)), t) for value, t in zip(values.tolist(), tokens.tolist()))
        assert sorted(picks)[:beams_per_group] == every[:beams_per_group]


def stable_ranked(logits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """`allocator._ranked` by one stable argsort of every row: the reference
    for its unstable sort and tie repair."""
    block = log_softmax_rows(logits)
    block[:, [PAD_ID, UNK_ID]] = -np.inf
    order = (-block).argsort(axis=1, kind="stable")[:, :width]
    return np.take_along_axis(block, order, axis=1), order.astype(np.int32)


@pytest.mark.parametrize("seed", range(4))
def test_ranked_gives_the_stable_sorts_bytes(seed):
    # logits drawn from a few levels, so that exact ties fall inside the kept
    # columns and across the width boundary, with runs of -inf, at widths up
    # to V, where PAD and UNK always tie
    rng = np.random.default_rng(seed)
    for _ in range(40):
        vocab_size = int(rng.integers(5, 200))
        width = int(rng.choice([1, 2, rng.integers(1, vocab_size + 1), vocab_size - 1, vocab_size]))
        levels = rng.normal(size=int(rng.integers(1, 12)))
        logits = rng.choice(levels, size=(int(rng.integers(1, 60)), vocab_size))
        logits[rng.random(logits.shape) < rng.choice([0.0, 0.3, 0.9])] = -np.inf
        logits[:, vocab_size - 1] = levels[0]  # a row of -inf logits is not finite
        logits[rng.random(len(logits)) < 0.2] = rng.normal(size=vocab_size)  # rows without ties
        got, want = allocator._ranked(logits, width), stable_ranked(logits, width)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_ranked_refuses_a_row_that_is_not_finite(bad):
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 30))
    logits[3, 7] = bad
    with np.errstate(invalid="ignore"):
        for width in (3, 30):
            with pytest.raises(model_module.NotFinite):
                allocator._ranked(logits, width)
        logits[3] = np.nan
        with pytest.raises(model_module.NotFinite):
            allocator._ranked(logits, 3)


@pytest.mark.parametrize("groups, beams_per_group", [(2, 1), (3, 2), (4, 3), (6, 1)])
def test_each_group_sorts_the_columns_its_penalties_can_reach(groups, beams_per_group):
    # every ranked row puts EOS first, banned at both steps, then the words in
    # order: at step 0 group g's penalty set is EOS and the beams_per_group * g
    # words earlier groups picked, all in the first columns, so its picks end
    # at the last column it sorts
    vocab_size = groups * beams_per_group + 5
    width = min(vocab_size, groups * beams_per_group + 1)
    tokens = np.array([EOS_ID] + list(range(3, vocab_size)) + [PAD_ID, UNK_ID], dtype=np.int32)[:width]
    values = -0.01 * np.arange(1, width + 1)
    assert_wave_steps_like_the_reference(lambda s, prefix: (values, tokens), 1, groups=groups,
                                         beams_per_group=beams_per_group, lam=10.0, max_len=2, min_len=2,
                                         vocab_size=vocab_size)


def test_a_pair_that_two_groups_pick_in_one_step_makes_one_node():
    # lam 0: every group picks the same two words from the root in one step
    def ranked_cache():
        cache = allocator.LogprobCache()
        cache.fit(7)
        cache.reserve(16)
        root = cache.new_root(None)
        cache.store(np.array([root]), -np.array([[0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]]),
                    np.array([[5, 3, 4, 6, 7, 8, EOS_ID]], np.int32))
        return cache, root

    cache, root = ranked_cache()
    wave = allocator._Wave(cache, [root], groups=3, beams_per_group=2, lam=0.0, max_len=2, min_len=1,
                           vocab_size=9)
    wave.step()
    assert cache.size == 3 and (wave.node == wave.node[:, :1]).all()
    assert cache.prefixes(wave.node[0, 0]) == [(5,), (3,)]
    # one call over repeated pairs gives the ids of one call per pair
    nodes, at = np.array([root] * 6), np.array([2, 0, 2, 3, 0, 1])
    one_call, root = ranked_cache()
    got = one_call.children(nodes, at)
    one_at_a_time, root = ranked_cache()
    want = [int(one_at_a_time.children(nodes[i:i + 1], at[i:i + 1])[0]) for i in range(len(at))]
    assert got.tolist() == want == [1, 2, 1, 3, 2, 4]
    for name in ("parent", "token", "depth"):
        assert np.array_equal(getattr(one_call, name)[:5], getattr(one_at_a_time, name)[:5])
    assert np.array_equal(one_call.child[root], one_at_a_time.child[root])


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
    cache = allocator.LogprobCache()
    narrow = diverse_beam_search(model, None, vocab, groups=1, beams_per_group=1,
                                 logprob_cache=cache, **kwargs)
    with pytest.raises(ValueError, match="logprob_cache"):
        diverse_beam_search(model, None, vocab, groups=3, beams_per_group=2,
                            logprob_cache=cache, **kwargs)
    # a wider cache serves a narrower search with the same picks
    wide = allocator.LogprobCache()
    diverse_beam_search(model, None, vocab, groups=3, beams_per_group=2, logprob_cache=wide, **kwargs)
    assert diverse_beam_search(model, None, vocab, groups=1, beams_per_group=1,
                               logprob_cache=wide, **kwargs) == narrow


def reference_ladder(model, items, vocab, cfg, search=diverse_beam_search):
    """`allocate_all` as a sequential ladder, the way it ran before waves:
    each item climbs the rungs in order, and a rung is searched with `search`
    when an item first reaches it for its text, unless the rung below, of
    the same length range, was answered by a `penalty_free` search. Returns
    the registry and the (text, rung) searched, in order."""
    capacity = model.config.max_tgt_len - 1
    rungs = []
    for range_index, (lo, hi) in enumerate(cfg.length_ranges):
        lam = cfg.lam_init
        while lo <= min(hi - 1, capacity) and lam <= cfg.lam_max + 1e-12:
            rungs.append((range_index, lo, min(hi - 1, capacity), lam))
            lam += cfg.lam_step
    ids, rows, taken, per_text, searched = {}, [], set(), {}, []
    for position, (key, text) in enumerate(items):
        if text not in per_text:
            cache = allocator.LogprobCache() if search is diverse_beam_search else {}
            per_text[text] = (model.encode(vocab.encode(text, model.config.max_src_len)), cache, {})
        state, cache, by_rung = per_text[text]
        for rung, (range_index, lo, max_len, lam) in enumerate(rungs):
            if rung not in by_rung:
                below = by_rung.get(rung - 1)
                if getattr(below, "penalty_free", False) and rungs[rung - 1][0] == range_index:
                    by_rung[rung] = below
                else:
                    by_rung[rung] = search(model, None, vocab, groups=cfg.groups,
                                           beams_per_group=cfg.beams_per_group, lam=lam, max_len=max_len,
                                           min_len=lo, state=state, logprob_cache=cache)
                    searched.append((text, rung))
            accepted = next((c for c in by_rung[rung] if c.text not in taken), None)
            if accepted is not None:
                row = allocator.AllocationRow(key, lam, range_index)
                break
        else:
            base, attempt = by_rung[len(rungs) - 1][0].tokens, 0
            while True:
                suffix = allocator._ordinal_tokens(position + attempt * len(items), vocab.size)
                tokens = base[: capacity - len(suffix)] + suffix
                if vocab.decode(tokens) not in taken:
                    break
                attempt += 1
            accepted = TextualId(tokens=tokens, text=vocab.decode(tokens))
            row = allocator.AllocationRow(key, cfg.lam_max, -1)
        ids[key] = accepted
        taken.add(accepted.text)
        rows.append(row)
    return IdRegistry(ids=ids, rows=tuple(rows)), searched


def recorded_waves(monkeypatch, items):
    """Make `allocate_all` record its waves: per wave, the (text, min_len,
    lam, candidates) of each search, texts told apart by the roots of their
    tries (the first wave holds every distinct text, in order of first
    appearance)."""
    waves, text_of = [], {}
    texts = list(dict.fromkeys(text for _, text in items))
    real = allocator._run_wave

    def recording(model, cache, roots, vocab, **settings):
        found, passes = real(model, cache, roots, vocab, **settings)
        if not waves:
            text_of.update(zip(roots, texts))
        waves.append([(text_of[root], settings["min_len"], settings["lam"], c) for root, c in zip(roots, found)])
        return found, passes

    monkeypatch.setattr(allocator, "_run_wave", recording)
    return waves


def rungs_searched(waves, cfg, model) -> list[tuple[str, int]]:
    """(text, rung) of each recorded search, in order."""
    capacity = model.config.max_tgt_len - 1
    rung_of, rung = {}, 0
    for lo, hi in cfg.length_ranges:
        lam = cfg.lam_init
        while lo <= min(hi - 1, capacity) and lam <= cfg.lam_max + 1e-12:
            rung_of[lo, lam] = rung
            rung += 1
            lam += cfg.lam_step
    return [(text, rung_of[min_len, lam]) for wave in waves for text, min_len, lam, _ in wave]


def assert_searches_follow_the_ladder(searched, ladder):
    """The same (text, rung) searches as the sequential ladder, and each
    text's in the same order."""
    assert sorted(searched) == sorted(ladder)
    for text in {t for t, _ in ladder}:
        assert [r for t, r in searched if t == text] == [r for t, r in ladder if t == text]


@pytest.mark.parametrize("layers", [1, 2])
def test_allocation_equals_one_built_on_reference_dbs(layers):
    # later rungs reuse a text's logprob cache, whose nodes keep their
    # decoder state, so their waves extend nodes that an earlier wave
    # decoded: nodes whose inputs past layer 0 a deeper generator attends
    # through
    vocab = make_vocab(WORDS[:5])
    model = tiny_model(vocab_size=vocab.size, seed=3, layers=layers)
    cfg = AllocatorConfig(groups=3, beams_per_group=2, lam_max=3.0, length_ranges=((1, 3), (3, 5)))
    texts = [f"{WORDS[i]} {WORDS[i + 1]}" for i in range(3)]
    items = [(f"k{i}", texts[i % 3]) for i in range(60)]
    extended, asked, wave_logits = [], set(), model.wave_logits

    def counted(cache, nodes, on_pass):
        # a parent below the root that the previous step did not ask for was
        # decoded by an earlier wave
        nonlocal asked
        extended.extend(u for u in cache.parent[nodes].tolist() if u >= 0 and cache.depth[u] and u not in asked)
        asked = set(nodes.tolist())
        wave_logits(cache, nodes, on_pass)

    model.wave_logits = counted
    registry = allocate_all(model, items, vocab, cfg)
    assert extended
    assert any(row.fallback for row in registry.rows)
    reference, _ = reference_ladder(model, items, vocab, cfg, search=reference_dbs)
    assert registry.ids == reference.ids and registry.rows == reference.rows


PENALTY_GRID = (0.0, 0.5, 1.0, 2.0, 3.5, 10.0, 40.0, 100.0)
TWO_LETTER_WORDS = [a + b for a in "abcdefg" for b in "abcdefg"]


def penalty_free_searches(model, vocab, state, groups, beams_per_group, max_len=5):
    """Run DBS over PENALTY_GRID for min_len 1 and 3. Every penalty-free result
    must equal the search at each higher penalty of the grid; returns how many
    results were penalty-free."""
    found = 0
    for min_len in (1, 3):
        kwargs = dict(groups=groups, beams_per_group=beams_per_group, max_len=max_len,
                      min_len=min_len, state=state)
        by_lam = [diverse_beam_search(model, None, vocab, lam=lam, **kwargs) for lam in PENALTY_GRID]
        for i, out in enumerate(by_lam):
            if out.penalty_free:
                found += 1
                for lam, higher in zip(PENALTY_GRID[i + 1:], by_lam[i + 1:]):
                    assert higher == out, (PENALTY_GRID[i], lam, kwargs)
    return found


@pytest.mark.parametrize("groups", [2, 3, 10])
@pytest.mark.parametrize("beams_per_group", [1, 2, 3])
def test_a_penalty_free_search_equals_every_higher_penalty(groups, beams_per_group):
    # a search is penalty-free only if each group's first step finds
    # beams_per_group words no earlier group picked: 1 to 8 words to spare
    rng = np.random.default_rng(1000 + 10 * groups + beams_per_group)
    found = 0
    for _ in range(2):
        vocab_size = int(rng.integers(groups * beams_per_group + 4, groups * beams_per_group + 12))
        vocab = make_vocab(TWO_LETTER_WORDS[: vocab_size - 3])
        model = tiny_model(vocab_size=vocab_size, seed=int(rng.integers(10_000)),
                           d_model=8, heads=2, ff_dim=8, max_tgt_len=6)
        state = model.encode(list(rng.integers(3, vocab_size, size=4)))
        found += penalty_free_searches(model, vocab, state, groups, beams_per_group)
    assert found > 0


@pytest.mark.parametrize("groups", [2, 3, 10])
@pytest.mark.parametrize("beams_per_group", [1, 2, 3])
def test_a_penalty_free_search_equals_every_higher_penalty_on_exact_ties(groups, beams_per_group):
    # the exact-ties model, with a word to spare for every beam of every group
    vocab = make_vocab(["red", "blue", "hat", "shoe"] + TWO_LETTER_WORDS[: groups * beams_per_group])
    red, blue = token(vocab, "red"), token(vocab, "blue")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.3, blue: 0.3, EOS_ID: 0.3},
        (red,): {EOS_ID: 0.5, blue: 0.5},
        (blue, red): {EOS_ID: 1.0},
    })
    assert penalty_free_searches(model, vocab, model.encode([3]), groups, beams_per_group) > 0


def test_a_kept_penalized_token_makes_allocation_search_the_next_rung(monkeypatch):
    # at lam 1 group 1 still prefers the penalized "red" (log 0.8 - 1 > log 0.2);
    # at lam 2 it moves to "blue", and the groups end at different steps
    vocab = make_vocab(["red", "blue", "hat"])
    red, blue, hat = token(vocab, "red"), token(vocab, "blue"), token(vocab, "hat")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.8, blue: 0.2},
        (red,): {hat: 1.0},
        (red, hat): {EOS_ID: 1.0},
        (blue,): {EOS_ID: 1.0},
    })
    kwargs = dict(groups=2, beams_per_group=1, max_len=3)
    at_1 = diverse_beam_search(model, [3], vocab, lam=1.0, **kwargs)
    at_2 = diverse_beam_search(model, [3], vocab, lam=2.0, **kwargs)
    assert [c.text for c in at_1] == ["red hat", "red hat"] and not at_1.penalty_free
    assert [c.text for c in at_2] == ["red hat", "blue"] and at_2.penalty_free

    cfg = AllocatorConfig(groups=2, beams_per_group=1, lam_max=4.0, length_ranges=((1, 3),))
    items = [("a", "red hat"), ("b", "red hat"), ("c", "red hat")]
    reference, ladder = reference_ladder(model, items, vocab, cfg, search=reference_dbs)
    waves = recorded_waves(monkeypatch, items)
    registry = allocate_all(model, items, vocab, cfg)
    # lam 1 kept a penalized token, lam 2 did not: lam 3 and 4 take lam 2's candidates
    assert [c for wave in waves for *_, c in wave] == [at_1, at_2]
    assert [registry.ids[k].text for k, _ in items[:2]] == ["red hat", "blue"]
    assert registry.rows[1].lam == 2.0 and registry.rows[2].fallback
    assert len(ladder) == 4
    assert registry.ids == reference.ids and registry.rows == reference.rows


def test_duplicated_texts_search_each_length_range_reached_once(monkeypatch, caplog):
    vocab = make_vocab(WORDS[:6])
    model = tiny_model(vocab_size=vocab.size, seed=3)
    cfg = AllocatorConfig(groups=3, beams_per_group=2, lam_max=3.0, length_ranges=((1, 3), (3, 5)))
    texts = [f"{WORDS[i]} {WORDS[i + 1]}" for i in range(3)]
    items = [(f"k{i}", texts[i % 3]) for i in range(30)]
    reference, ladder = reference_ladder(model, items, vocab, cfg, search=reference_dbs)
    waves = recorded_waves(monkeypatch, items)
    with caplog.at_level("INFO", logger="textidrec.allocator"):
        registry = allocate_all(model, items, vocab, cfg)
    calls = [search for wave in waves for search in wave]
    assert all(result.penalty_free for *_, result in calls)
    searched = [(text, min_len) for text, min_len, _, _ in calls]
    assert len(searched) == len(set(searched))
    # a text reached every range up to the highest one any of its items used;
    # a fallback item used them all
    last = len(cfg.length_ranges) - 1
    reached = {}
    for (_, text), row in zip(items, registry.rows):
        reached[text] = max(reached.get(text, 0), last if row.fallback else row.range_index)
    assert len(calls) == sum(top + 1 for top in reached.values())
    assert reached[texts[0]] == last  # the ladder was climbed

    assert registry.ids == reference.ids and registry.rows == reference.rows
    assert len(ladder) > len(calls)
    assert (f"{len(calls)} searches, {len(ladder) - len(calls)} rungs answered by a "
            f"penalty-free search") in caplog.text


def test_allocation_runs_the_searches_of_the_sequential_ladder(monkeypatch, caplog):
    # four texts of eight items each over three length ranges: the first
    # wave holds every text's first rung, and a later wave every text that
    # has more items left than its known rungs have untaken candidates
    vocab = make_vocab(WORDS[:6])
    model = tiny_model(vocab_size=vocab.size, seed=3)
    cfg = AllocatorConfig(groups=3, beams_per_group=2, lam_max=2.0,
                          length_ranges=((1, 3), (3, 5), (5, 7)))
    texts = [f"{WORDS[i]} {WORDS[i + 1]}" for i in range(4)]
    items = [(f"k{i}", texts[i % 4]) for i in range(32)]
    reference, ladder = reference_ladder(model, items, vocab, cfg)
    waves = recorded_waves(monkeypatch, items)
    with caplog.at_level("INFO", logger="textidrec.allocator"):
        registry = allocate_all(model, items, vocab, cfg)
    assert registry.ids == reference.ids and registry.rows == reference.rows
    assert_searches_follow_the_ladder(rungs_searched(waves, cfg, model), ladder)
    assert [text for text, *_ in waves[0]] == texts
    assert any(len(wave) > 1 for wave in waves[1:])
    sizes = "/".join(str(len(wave)) for wave in waves)
    assert f"{len(waves)} waves of {sizes} searches" in caplog.text


def test_allocation_follows_the_ladder_when_the_first_rung_keeps_a_penalty(monkeypatch):
    # every text's first rung keeps a penalized token, so its second rung is
    # searched, like every later rung, only once each text's need is certain
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, blue, hat = token(vocab, "red"), token(vocab, "blue"), token(vocab, "hat")
    model = ScriptedModel(vocab.size, {
        (): {red: 0.8, blue: 0.2},
        (red,): {hat: 1.0},
        (red, hat): {EOS_ID: 1.0},
        (blue,): {EOS_ID: 1.0},
    })
    cfg = AllocatorConfig(groups=2, beams_per_group=1, lam_max=3.0, length_ranges=((1, 3), (3, 5)))
    items = [(f"k{i}{text}", text) for i in range(3) for text in ("red hat", "blue shoe", "hat")]
    reference, ladder = reference_ladder(model, items, vocab, cfg)
    waves = recorded_waves(monkeypatch, items)
    registry = allocate_all(model, items, vocab, cfg)
    assert not any(c.penalty_free for *_, c in waves[0])
    assert registry.ids == reference.ids and registry.rows == reference.rows
    assert_searches_follow_the_ladder(rungs_searched(waves, cfg, model), ladder)


def ladder_case(case):
    """A random three-range allocation: a tiny generator, two to four texts
    of one to twelve items each, shuffled."""
    rng = random.Random(case)
    nw = rng.randint(4, 7)
    vocab = make_vocab(WORDS[:nw])
    model = tiny_model(vocab.size, seed=rng.randint(0, 50), layers=rng.choice([1, 2]))
    los = sorted(rng.sample(range(1, 8), 3))
    ranges = tuple(zip(los, los[1:] + [los[-1] + rng.randint(1, 2)]))
    cfg = AllocatorConfig(groups=rng.randint(1, 3), beams_per_group=rng.randint(1, 2),
                          lam_max=rng.choice([1.0, 2.0]), length_ranges=ranges)
    items = []
    for i in range(rng.randint(2, 4)):
        items += [(f"k{i}_{j}", f"{WORDS[i]} {WORDS[(i + 1) % nw]}") for j in range(rng.randint(1, 12))]
    rng.shuffle(items)
    return model, items, vocab, cfg


# in cases 41, 54 and 237 a text's items all accept at rungs of earlier
# ranges, though counting only the range just below a later range's first
# rung says some item reaches it
@pytest.mark.parametrize("case", sorted({41, 54, 237, *range(60)}))
def test_allocation_runs_the_ladder_searches_on_random_ladders(monkeypatch, case):
    model, items, vocab, cfg = ladder_case(case)
    reference, ladder = reference_ladder(model, items, vocab, cfg)
    waves = recorded_waves(monkeypatch, items)
    registry = allocate_all(model, items, vocab, cfg)
    assert_searches_follow_the_ladder(rungs_searched(waves, cfg, model), ladder)
    assert registry.ids == reference.ids and registry.rows == reference.rows


def test_escalating_texts_search_each_rung_in_one_wave(caplog):
    # the pinned seed-1, one-layer allocation: each text's items escalate
    # one at a time, and the four texts reach every rung together
    items = synth.duplicated_metadata_items(n_items=40, n_distinct=4)
    random.Random(1).shuffle(items)
    vocab = tokenizer.build_vocab([text for _, text in items])
    model = SequenceModel.init(ModelConfig(vocab_size=vocab.size, d_model=32, layers=1, heads=2, ff_dim=64,
                                           max_src_len=64, max_tgt_len=24, seed=5))
    with caplog.at_level("INFO", logger="textidrec.allocator"):
        allocate_all(model, items, vocab, AllocatorConfig())
    assert (f"44 searches, 0 rungs answered by a penalty-free search; 11 waves of {'/'.join(['4'] * 11)} "
            f"searches,") in caplog.text


def run_wave(model, vocab, states, cache=None, **kwargs):
    """One `_run_wave` over a search per encoder state, their tries under
    the first roots of `cache` (a new logprob cache by default); returns the
    candidates and what the wave ran."""
    cache = allocator.LogprobCache() if cache is None else cache
    roots = list(range(len(states))) if cache.size else [cache.new_root(state) for state in states]
    return allocator._run_wave(model, cache, roots, vocab, **kwargs)


def assert_wave_equals_separate_searches(model, vocab, states, **kwargs):
    found, _ = run_wave(model, vocab, states, **kwargs)
    for state, candidates in zip(states, found):
        alone = diverse_beam_search(model, None, vocab, state=state, **kwargs)
        assert candidates == alone and candidates.penalty_free == alone.penalty_free, kwargs


@pytest.mark.parametrize("layers", [1, 2])
def test_a_wave_equals_separate_searches(layers):
    # sources of different lengths, one of them empty
    rng = np.random.default_rng(layers)
    for _ in range(2):
        vocab_size = int(rng.integers(8, 14))
        vocab = make_vocab(WORDS[: vocab_size - 3])
        model = tiny_model(vocab_size=vocab_size, seed=int(rng.integers(10_000)), layers=layers,
                           d_model=8, heads=2, ff_dim=8, max_tgt_len=7)
        states = [model.encode(list(rng.integers(3, vocab_size, size=n))) for n in (4, 1, 0, 7, 2)]
        for groups, beams_per_group in ((1, 2), (3, 2), (4, 1)):
            for lam, min_len in ((0.5, 1), (3.0, 3)):
                assert_wave_equals_separate_searches(model, vocab, states, groups=groups,
                                                     beams_per_group=beams_per_group, lam=lam,
                                                     max_len=5, min_len=min_len)


@pytest.mark.parametrize("groups", [1, 3])
def test_a_wave_equals_separate_searches_on_exact_ties(groups):
    vocab = make_vocab(["red", "blue", "hat", "shoe"])
    red, blue = token(vocab, "red"), token(vocab, "blue")

    class PerSourceTies(ScriptedModel):
        """The exact-ties table, read backwards after the source's first token."""

        def logits(self, state, prefix):
            return super().logits(state, prefix[::-1] if prefix[:1] == state.src[:1] else prefix)

    model = PerSourceTies(vocab.size, {
        (): {red: 0.3, blue: 0.3, EOS_ID: 0.3},
        (red,): {EOS_ID: 0.5, blue: 0.5},
        (blue, red): {EOS_ID: 1.0},
    })
    states = [model.encode(src) for src in ([red], [blue], [3], [])]
    for lam, min_len in ((0.0, 1), (1.0, 2), (5.0, 1)):
        assert_wave_equals_separate_searches(model, vocab, states, groups=groups, beams_per_group=2,
                                             lam=lam, max_len=4, min_len=min_len)


def test_the_row_bound_changes_the_passes_not_the_results(monkeypatch):
    vocab = make_vocab(WORDS[:10])
    model = tiny_model(vocab_size=vocab.size, seed=7, layers=2)
    states = [model.encode(src) for src in ([3, 4], [5], [6, 7, 8, 9], [])]
    kwargs = dict(groups=3, beams_per_group=2, lam=1.0, max_len=6, min_len=2)
    found, passes = run_wave(model, vocab, states, **kwargs)
    for bound in (1, 7):  # key rows per pass at d_model 16: one row, or 7 // (depth + 1) rows
        monkeypatch.setattr(model_module, "_WAVE_KEY_FLOATS", bound * 16)
        again, more = run_wave(model, vocab, states, **kwargs)
        assert again == found and [c.penalty_free for c in again] == [c.penalty_free for c in found]
        assert more.passes > passes.passes


@pytest.mark.parametrize("layers", [1, 2])
def test_a_second_wave_decodes_only_the_nodes_it_asks_for(layers, decoder_calls):
    # a second wave over tries that an earlier wave ranked starts from their
    # decoded nodes: each call decodes one row per node asked, and the wave
    # returns what the same searches return on fresh logprob caches
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=11, layers=layers)
    states = [model.encode(src) for src in ([3, 4], [5], [6, 7, 8, 9], [], [4, 3])]
    cache = allocator.LogprobCache()
    run_wave(model, vocab, states, cache, groups=3, beams_per_group=2, lam=1.0, max_len=3, min_len=1)
    kwargs = dict(groups=3, beams_per_group=2, lam=3.0, max_len=6, min_len=2)
    rows, wave_logits = [], model.wave_logits

    def counted(cache, nodes, on_pass):
        decoded = np.count_nonzero(cache.entry[:cache.size] >= 0)
        decoder_calls.clear()
        wave_logits(cache, nodes, on_pass)
        rows.append((len(nodes), sum(decoder_calls), np.count_nonzero(cache.entry[:cache.size] >= 0) - decoded))

    model.wave_logits = counted
    found, ran = run_wave(model, vocab, states, cache, **kwargs)
    assert all(asked == decoded == added for asked, decoded, added in rows)
    assert sum(asked for asked, _, _ in rows) > 0 and ran.passes == sum(n > 0 for n, _, _ in rows)
    model.wave_logits = wave_logits
    fresh, alone = run_wave(model, vocab, states, **kwargs)
    assert found == fresh and [c.penalty_free for c in found] == [c.penalty_free for c in fresh]
    assert alone.passes > ran.passes


def test_a_wave_that_raises_leaves_every_logprob_cache_as_it_was():
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=2, layers=2, max_tgt_len=5)
    states = [model.encode(src) for src in ([3, 4], [5, 6, 7])]
    cache = allocator.LogprobCache()
    run_wave(model, vocab, states, cache, groups=2, beams_per_group=2, lam=1.0, max_len=3, min_len=1)

    def held():
        size, entries = cache.size, len(cache.entry_of)
        decoded = np.flatnonzero(cache.entry[:size] >= 0)
        return (size, decoded.tolist(), list(cache.entry_of.items()), cache.layer0[:entries].tobytes(),
                *(a[:size].tobytes() for a in (cache.parent, cache.token, cache.depth, cache.context, cache.entry)),
                *(a[decoded].tobytes() for a in (cache.kv, cache.values, cache.tokens, cache.child)))

    before = held()
    assert before[1]
    # what the raising wave changed before it raised: the nodes it decoded
    # that were undecoded at the mark, and its links out of decoded nodes
    changed, rollback = [], cache.rollback

    def undo(mark):
        size, decoded = before[0], before[1]
        changed.append((np.count_nonzero(cache.entry[:size] >= 0) - len(decoded),
                        np.count_nonzero(cache.child[decoded] >= size)))
        rollback(mark)

    cache.rollback = undo
    # EOS banned to the end: the beams reach the decoder's capacity; one
    # group of four beams picks children the earlier wave did not
    with pytest.raises(SequenceTooLong):
        run_wave(model, vocab, states, cache, max_len=7, min_len=7, groups=1, beams_per_group=4, lam=1.0)
    assert held() == before
    assert changed[0][0] > 0 and changed[0][1] > 0


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


def test_a_repeated_item_key_is_refused_before_any_search(decoder_calls):
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=2)
    items = [("a", "alfa bravo"), ("b", "coral delta"), ("b", "echos fjord"), ("a", "golfe hotel")]
    with pytest.raises(ValueError, match="duplicate item key 'b'"):
        allocate_all(model, items, vocab, AllocatorConfig(groups=2))
    assert decoder_calls == []


def test_allocation_refuses_a_generator_whose_parameter_holds_nan():
    # its NaN logits ranked no token, which blamed the vocabulary
    vocab = make_vocab(WORDS[:8])
    model = tiny_model(vocab_size=vocab.size, seed=2)
    model.params["dec_ln_g"][0] = np.nan
    items = [("a", "alfa bravo"), ("b", "coral delta")]
    with pytest.raises(ValueError, match="not finite"):
        allocate_all(model, items, vocab, AllocatorConfig(groups=2))


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
    # one summary line; the per-item lines stay below WARNING
    assert [record.getMessage() for record in caplog.records if record.levelno >= logging.WARNING] == [
        f"allocation used the ordinal fallback for {int(stats['fallback_count'])} items"]


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


@pytest.mark.parametrize("kwargs", [
    dict(lam_step=0.0), dict(lam_step=-1.0), dict(length_ranges=()),
    # lam + lam_step == lam: the ladder would never reach lam_max
    dict(lam_init=1e17, lam_max=1e17), dict(lam_init=1e308, lam_max=1e308),
    dict(lam_init=1e17, lam_max=1e17 + 64),
    # a ladder too long to climb: 9e9 rungs, and 1001
    dict(lam_step=1e-9), dict(lam_init=0.0, lam_max=1000.0),
])
def test_config_rejects_a_ladder_that_cannot_climb(kwargs):
    with pytest.raises(ValueError):
        AllocatorConfig(**kwargs)
    assert len(AllocatorConfig(lam_init=0.0, lam_max=999.0).penalties()) == 1000


@pytest.mark.parametrize("kwargs,reason", [
    *((dict(lam_max=value), "finite") for value in (math.inf, math.nan)),
    *((dict(lam_step=value), "finite") for value in (math.inf, math.nan)),
    *((dict(lam_init=value), "finite") for value in (math.inf, math.nan)),
    (dict(lam_init=-1.0), "lam_init must be >= 0"),
])
def test_config_rejects_a_non_finite_or_negative_penalty(kwargs, reason):
    # an infinite lam_max would give allocate_all an endless ladder
    with pytest.raises(ValueError, match=reason):
        AllocatorConfig(**kwargs)
    assert AllocatorConfig(lam_init=0.0).lam_init == 0.0


# Recorded before the beam search ran as array operations over node ids, so
# that a last-bit change in the search fails here and not only in the
# benchmark's digests: per (shuffle seed, generator layers), the registry of
# alloc-dup's small input set (40 items sharing 4 texts), and the user-ID
# snapshot of criterion 8's cyclic set under an untrained generator.
PINNED_REGISTRIES = {
    (1, 1): "99dde44863762f01093347d80b233b5c57d2d2b44a2bc7fa278814925bde865d",
    (1, 2): "9db1c620eef8284c0aaaa1b716c119a07ab848bcb166398d6f36ef90d49f6d20",
    (5, 1): "b7ef166b9639f7beb5d315b4c7e35e15ac9e60f7558ff8658db78d76f718e2c9",
    (5, 2): "41c4992c1d6e49bf21067ac9ca62305e3e4ae863c44e3f03c64d23e83d945e98",
}
PINNED_USER_IDS = "59eab364314b8247b5d6f2f2de883ae427b17a512a56eaefadc6addd008311a9"


@pytest.mark.parametrize("seed,layers", list(PINNED_REGISTRIES))
def test_allocation_keeps_its_pinned_bits(seed, layers):
    items = synth.duplicated_metadata_items(n_items=40, n_distinct=4)
    random.Random(seed).shuffle(items)
    vocab = tokenizer.build_vocab([text for _, text in items])
    model = SequenceModel.init(ModelConfig(vocab_size=vocab.size, d_model=32, layers=layers, heads=2, ff_dim=64,
                                           max_src_len=64, max_tgt_len=24, seed=5))
    registry = allocate_all(model, items, vocab, AllocatorConfig())
    assert registry.content_hash() == PINNED_REGISTRIES[seed, layers]


def test_user_ids_keep_their_pinned_bits():
    split = corpus.leave_one_out_split(corpus.filter_k_core(synth.cyclic_dataset(), k=5))
    texts = [corpus.flatten_metadata(record) for record in split.items.values()]
    texts += [template.text.replace(prompting.ITEM_PLACEHOLDER, " ").replace(prompting.USER_PLACEHOLDER, " ")
              for template in prompting.default_bank()]
    vocab = tokenizer.build_vocab(texts)
    idgen = SequenceModel.init(ModelConfig(vocab_size=vocab.size, seed=14))
    ids = training.snapshot_user_ids(idgen, training.build_train_examples(split),
                                     dict(corpus.item_texts(split.items)), vocab, AllocatorConfig())
    digest = hashlib.sha256()
    for history, tid in ids.items():
        digest.update(repr((history, tid.text)).encode())
    assert len(ids) == 48 and digest.hexdigest() == PINNED_USER_IDS
