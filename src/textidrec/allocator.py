"""Textual ID allocation: diverse beam search with an escalating diversity
penalty assigns every item a short, unique, human-vocabulary ID.

Beams are partitioned into groups that advance in lockstep: at each timestep
one scoring call covers every live beam of every group, then the groups pick
their tokens in group order, each penalizing a candidate token by lambda
times the number of times earlier groups chose it at this timestep (Hamming
diversity). This equals decoding the groups one after another: a group's
beams at step t are fixed when step t-1 ends, and only its penalty depends
on what earlier groups pick at step t. On full duplication the penalty
escalates; when it tops out, the permissible length range advances and the
penalty resets. Models provide `config`, `encode`, `wave_logits` (the step
scorer) and `param_hash`.

Each scored prefix is ranked once. The logprob cache keeps, per prefix, its
`width = min(V, groups * beams_per_group + 1)` best next tokens (log-probs as
float64, ids as int32), best first, equal log-probs in token order, PAD and
UNK ranked as -inf. A beam walks this list, penalizing as it goes, and stops
once it has seen `beams_per_group` unpenalized tokens; it keeps the best
`beams_per_group` of what it walked. That equals a stable argsort of the
whole penalized row: a penalty only lowers a value, so every token past the
stop ranks after the last unpenalized token seen. At most `beams_per_group *
(groups - 1)` tokens carry a penalty and EOS may be banned, so the list
always holds enough unpenalized tokens.

Searches run as waves. A wave is a list of searches, each against its own
encoder state and logprob cache, run in lanes: consecutive searches whose
decode state fits in `_LANE_BYTES` advance in lockstep through one
`DecodeCache` (see `model.py`), and each step asks one `wave_logits` call
for the prefixes that the lane's logprob caches lack, ranking each pass's
rows as its logits return. A prefix the logprob cache already ranked is
not asked for; the `DecodeCache` decodes it when a descendant needs it, as
an ancestor whose logits go nowhere (a one-layer model gives it no pass
unless it is the first of its (token, depth) pair). A cache row holds no float
of layer 0 (its input is kept once per (token, depth)), so a one-layer
generator's wave of a few thousand searches is one lane; the bound keeps
a deeper model's lane, whose rows hold the inputs of every later layer,
small next to the logprob caches. `diverse_beam_search` is a wave of one
search, so there is one search loop.

`allocate_all` forms waves only of searches it will certainly run, so each
text's searches, their order and their count are those of the one-item-
at-a-time ladder. Before the first item, one wave runs the first rung of
every distinct text, which the text's first item needs. When an item needs
the first rung of a later length range r, one wave runs it for that item's
text and for every other text u that has not run it, whose range below r
was answered by one penalty-free result, and that has more items left than
that result has candidates not yet taken: `taken` only grows, and each
item of u accepts at most one of those candidates, so by pigeonhole some
item of u falls through to rung r. Every other search runs on demand as a
wave of one. The log line counts the waves, their sizes and the on-demand
searches.

A search that kept no penalized token answers every higher penalty of its
length range. Call a search penalty-free when, in every beam of every group
at every step, the best `beams_per_group` walked picks are all unpenalized
tokens. The same search at any lam' >= lam then returns the same candidates:
- a penalty is `lam * count`, so raising lam only lowers a penalized value,
  and float rounding keeps that monotone;
- which tokens carry a penalty depends on the counts, not on lam, so the
  walk stops after the same unpenalized tokens;
- the penalized picks keep sorting after them (equal values still break ties
  by token), so every beam keeps the same candidates with the same totals;
- so every group picks the same tokens, and the counts that later groups see
  are the same.
`diverse_beam_search` marks such a result `penalty_free`, and `allocate_all`
answers every later rung of that length range with it instead of searching
again. The check costs nothing when no beam walked a penalized token.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import DecodeCache, log_softmax_rows
from .tokenizer import EOS_ID, PAD_ID, UNK_ID, Vocabulary

log = logging.getLogger(__name__)

# Bytes of per-row decode state one lockstep lane of a wave may hold (its
# searches' rows times `DecodeCache.row_bytes`): about what a lane of 12
# default searches of a two-layer generator held when rows kept layer 0 too.
_LANE_BYTES = 4 << 20


class IdSpaceExhausted(RuntimeError):
    """No unique ID could be produced even by the ordinal fallback."""


@dataclass(frozen=True)
class TextualId:
    """A short token sequence (EOS-stripped) plus its decoded text."""

    tokens: tuple[int, ...]
    text: str


@dataclass(frozen=True)
class AllocatorConfig:
    groups: int = 10
    beams_per_group: int = 2
    lam_init: float = 1.0
    lam_step: float = 1.0
    lam_max: float = 10.0
    length_ranges: tuple[tuple[int, int], ...] = ((1, 10), (10, 20))

    def __post_init__(self) -> None:
        if self.groups < 1 or self.beams_per_group < 1:
            raise ValueError("groups and beams_per_group must be >= 1")
        # an infinite lam_max would make the escalation ladder endless
        if not all(map(math.isfinite, (self.lam_init, self.lam_step, self.lam_max))):
            raise ValueError("lam_init, lam_step and lam_max must be finite")
        if self.lam_init < 0:
            raise ValueError("lam_init must be >= 0")
        if self.lam_init > self.lam_max:
            raise ValueError("lam_init must not exceed lam_max")
        if self.lam_step <= 0:
            raise ValueError("lam_step must be positive")
        if not self.length_ranges:
            raise ValueError("length_ranges must be non-empty")
        previous_hi = 0
        for lo, hi in self.length_ranges:
            if not (0 < lo < hi) or lo < previous_hi:
                raise ValueError(f"length ranges must be increasing and disjoint: {self.length_ranges}")
            previous_hi = hi


@dataclass(frozen=True)
class AllocationRow:
    """Per-item escalation record: the penalty and length range in force when
    the ID was accepted. range_index -1 marks the ordinal fallback."""

    key: str
    lam: float
    range_index: int

    @property
    def fallback(self) -> bool:
        return self.range_index < 0


@dataclass
class IdRegistry:
    """item -> TextualId map with pairwise-distinct ID texts."""

    ids: dict[str, TextualId]
    rows: tuple[AllocationRow, ...]
    generator_hash: str | None = None

    def stats(self, lam_init: float) -> dict[str, float]:
        """Escalation fractions against the allocation's first penalty `lam_init`.

        An item "escalated" if it was not accepted on the very first attempt
        (its accepted penalty exceeds lam_init, or it left the first length
        range, which implies the whole first penalty ladder failed).
        """
        n = max(1, len(self.rows))
        escalated = sum(1 for r in self.rows if r.lam > lam_init or r.range_index != 0)
        extended = sum(1 for r in self.rows if r.range_index != 0)
        fallbacks = sum(1 for r in self.rows if r.fallback)
        return {
            "items": float(len(self.rows)),
            "fraction_lambda_escalated": escalated / n,
            "fraction_length_extended": extended / n,
            "fallback_count": float(fallbacks),
        }

    def content_hash(self) -> str:
        digest = hashlib.sha256()
        for key, tid in self.ids.items():
            digest.update(key.encode("utf-8"))
            digest.update(b"\x00")
            digest.update(tid.text.encode("utf-8"))
            digest.update(b"\x01")
        return digest.hexdigest()

    def save_tsv(self, path: str | Path) -> None:
        lines = [f"#generator_hash={self.generator_hash or '-'}"]
        lines += [
            f"{row.key}\t{self.ids[row.key].text}\t{row.lam}\t{row.range_index}" for row in self.rows
        ]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load_tsv(cls, path: str | Path, vocab: Vocabulary) -> "IdRegistry":
        """Read what `save_tsv` writes. A row that is not four tab-separated
        fields, repeats a key or an ID text, has an ID text that is empty,
        holds a word outside `vocab` or does not decode back to itself, or
        has a non-finite `lam` or a `range_index` below -1 is a ValueError
        naming the file and the line."""
        ids: dict[str, TextualId] = {}
        rows: list[AllocationRow] = []
        lines_of: dict[tuple[str, str], int] = {}  # ("key" or "ID text", value) -> its line
        generator_hash: str | None = None
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            if not line:
                continue
            if line.startswith("#generator_hash="):
                value = line.split("=", 1)[1]
                generator_hash = None if value == "-" else value
                continue
            try:
                tid, row = _registry_row(line.split("\t"), vocab)
                for kind, value in (("key", row.key), ("ID text", tid.text)):
                    if (kind, value) in lines_of:
                        raise ValueError(f"{kind} {value!r} already on line {lines_of[kind, value]}")
                    lines_of[kind, value] = number
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
            ids[row.key] = tid
            rows.append(row)
        return cls(ids=ids, rows=tuple(rows), generator_hash=generator_hash)


def _registry_row(fields: list[str], vocab: Vocabulary) -> tuple[TextualId, AllocationRow]:
    """One `ids.tsv` row, checked; a ValueError says what is wrong with it."""
    if len(fields) != 4:
        raise ValueError(f"expected 4 tab-separated fields (key, ID text, lam, range_index), "
                         f"got {len(fields)}")
    key, text, lam, range_index = fields
    tokens = tuple(vocab.encode(text))
    if not tokens:
        raise ValueError(f"empty ID text for key {key!r}")
    if UNK_ID in tokens:
        raise ValueError(f"ID text {text!r} has a word outside the vocabulary")
    if vocab.decode(tokens) != text:
        raise ValueError(f"ID text {text!r} does not decode back to itself ({vocab.decode(tokens)!r})")
    try:
        lam_value, index = float(lam), int(range_index)
    except ValueError:
        raise ValueError(f"lam {lam!r} must be a float and range_index {range_index!r} an int") from None
    if not math.isfinite(lam_value):
        raise ValueError(f"lam {lam!r} is not finite")
    if index < -1:
        raise ValueError(f"range_index {index} is below -1")
    return TextualId(tokens=tokens, text=text), AllocationRow(key=key, lam=lam_value, range_index=index)


def _ranked(logits: np.ndarray, width: int) -> tuple[memoryview, memoryview, int]:
    """Each row's `width` best next tokens, best first, equal log-probs in
    token order, PAD and UNK ranked as -inf: flat float64 log-probs and
    int32 token ids, `kept` per row, ranked by one stable argsort and read
    through memoryviews, which yield Python numbers without a conversion per
    row."""
    block = log_softmax_rows(logits)
    block[:, [PAD_ID, UNK_ID]] = -np.inf
    order = (-block).argsort(axis=1, kind="stable")[:, :width]
    return (memoryview(np.take_along_axis(block, order, axis=1).ravel()),
            memoryview(order.astype(np.int32).ravel()), order.shape[1])


class Candidates(list):
    """One TextualId per group, in group order: a plain list, plus whether the
    search kept no penalized token, so that every higher lam returns the same
    list (module doc)."""

    penalty_free = False


class _Search:
    """One diverse beam search against the encoder state `state`, advanced
    a step at a time by `_run_lane`. A beam is (prefix, score). `cache`,
    the logprob cache, maps a prefix to ((log-probs, ids, kept), row) of a
    `_ranked` block; a prefix it already holds is not decoded again."""

    def __init__(self, state, cache: dict | None, *, groups: int, beams_per_group: int,
                 lam: float, max_len: int, min_len: int, vocab_size: int):
        if not 0 <= lam < np.inf or max_len < 1 or min_len < 1:
            raise ValueError("lam must be finite and >= 0, and max_len/min_len >= 1")
        self.state, self.cache = state, {} if cache is None else cache
        self.beams_per_group, self.lam, self.max_len, self.min_len = beams_per_group, lam, max_len, min_len
        # earlier groups penalize at most beams_per_group * (groups - 1) tokens, and
        # EOS may be banned: one more than that leaves every beam its top-k (module doc)
        self.width = min(vocab_size, groups * beams_per_group + 1)
        self.beams: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in range(groups)]
        self.completed: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(groups)]
        self.penalty_free = True  # no beam has kept a penalized token so far
        self.t = 0

    def live(self) -> bool:
        return self.t < self.max_len and any(self.beams)

    def room(self) -> int:
        """The rows the search decodes at most: one per beam and step, and
        the empty prefix."""
        return 1 + len(self.beams) * self.beams_per_group * (self.max_len - 1)

    def missing(self) -> list[tuple[int, ...]]:
        """The live prefixes the logprob cache lacks, each once, in beam order."""
        return [seq for seq in dict.fromkeys(seq for group in self.beams for seq, _ in group)
                if seq not in self.cache]

    def step(self) -> None:
        """Step t: every group picks its beams, in group order, from the ranked
        lists of its beams' prefixes."""
        beams, lam, beams_per_group, width = self.beams, self.lam, self.beams_per_group, self.width
        ranked = []
        for seq, _ in (beam for group in beams for beam in group):
            (values, tokens, kept), row = self.cache[seq]
            if kept < width:
                raise ValueError(f"logprob_cache holds the {kept} best tokens per prefix; "
                                 f"this search needs {width}")
            ranked.append((values[row * kept:row * kept + width], tokens[row * kept:row * kept + width]))
        ranked = iter(ranked)
        counts: dict[int, int] = {}  # picks at step t by the groups done so far
        # token -> lam * count; EOS is banned while every live beam (all t long) is short
        penalty = {EOS_ID: math.inf} if self.t < self.min_len else {}
        cost_of = penalty.get
        for g, group in enumerate(beams):
            if not group:
                continue
            # sort keys as plain tuples: (-value, token) per beam, (-total, seq, token)
            # per group; negation is exact, so -(-x) gives back x bit for bit
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

    def result(self, vocab: Vocabulary) -> Candidates:
        results = Candidates()
        results.penalty_free = self.penalty_free
        decoded: dict[tuple[int, ...], TextualId] = {}  # groups often agree under duplication
        for group_beams, done in zip(self.beams, self.completed):
            done = done + [(score, seq) for seq, score in group_beams]  # hit max_len
            if not done:
                raise IdSpaceExhausted("no decodable token: vocabulary has no usable entries")
            done.sort(key=lambda c: (-c[0], c[1]))
            best_seq = done[0][1]
            if best_seq not in decoded:
                decoded[best_seq] = TextualId(tokens=best_seq, text=vocab.decode(best_seq))
            results.append(decoded[best_seq])
        return results


def _run_lane(model, lane: list[_Search]) -> DecodeCache:
    """Run the searches of `lane` in lockstep to their ends, each against its
    own context in one `DecodeCache`, and return the cache: a step asks for
    the prefixes that every live search's logprob cache lacks in one
    `wave_logits` call, ranking each pass's rows into the logprob caches as
    its logits return."""
    state = DecodeCache([s.state for s in lane], room=sum(s.room() for s in lane))
    width = max(s.width for s in lane)
    while True:
        live = [(i, s) for i, s in enumerate(lane) if s.live()]
        if not live:
            return state
        requests = [(i, seq) for i, s in live for seq in s.missing()]

        def rank(indices: np.ndarray, logits: np.ndarray) -> None:
            block = _ranked(logits, width)
            for row, at in enumerate(indices.tolist()):
                i, seq = requests[at]
                lane[i].cache[seq] = (block, row)

        model.wave_logits(state, requests, rank)
        for _, s in live:
            s.step()


@dataclass(frozen=True)
class WaveStats:
    """What a wave ran: its lanes, decoder passes and layer-0 table entries
    (summed over its lanes)."""

    lanes: int
    passes: int
    entries: int


def _run_wave(model, searches: list[_Search], vocab: Vocabulary) -> tuple[list[Candidates], WaveStats]:
    """Run `searches`, whose logprob caches are distinct dicts, as one wave:
    in lanes of consecutive searches whose rows (`_Search.room`) hold at
    most `_LANE_BYTES` of decode state (a search too large for it is a lane
    of its own), each lane in lockstep (`_run_lane`). Returns each search's
    candidates and what the wave ran. A wave that raises leaves every
    logprob cache as it was: it only adds entries, and a dict keeps them in
    insertion order."""
    sizes = {id(s.cache): len(s.cache) for s in searches}
    if len(sizes) < len(searches):
        raise ValueError("the searches of one wave need distinct logprob caches")
    limit = _LANE_BYTES // DecodeCache.row_bytes(model.config)
    lanes = passes = entries = lo = 0
    try:
        while lo < len(searches):
            hi, rows = lo + 1, searches[lo].room()
            while hi < len(searches) and rows + searches[hi].room() <= limit:
                rows += searches[hi].room()
                hi += 1
            state = _run_lane(model, searches[lo:hi])
            lanes, passes, entries = lanes + 1, passes + state.passes, entries + len(state.entry_of)
            lo = hi
        return [s.result(vocab) for s in searches], WaveStats(lanes, passes, entries)
    except BaseException:
        for s in searches:
            for prefix in list(s.cache)[sizes[id(s.cache)]:]:
                del s.cache[prefix]
        raise


def diverse_beam_search(model, src_ids, vocab: Vocabulary, *, groups: int,
                        beams_per_group: int, lam: float, max_len: int,
                        min_len: int = 1, state=None,
                        logprob_cache: dict | None = None) -> Candidates:
    """Return one candidate per group, in group order (possibly duplicates).

    Group g's candidate token score is its log-probability minus `lam` times
    the number of times earlier groups selected that token at the same
    timestep. PAD and UNK are banned everywhere; EOS is banned while the
    sequence is shorter than `min_len`. All groups advance in lockstep: one
    scoring call per timestep covers every live beam, then the groups pick
    their tokens in order. A `logprob_cache` filled by a search that kept
    fewer ranked tokens per prefix than this one needs is a ValueError.
    The result is `penalty_free` when no beam kept a penalized token. This
    is a wave of one search (`_run_wave`).
    """
    search = _Search(state, logprob_cache, groups=groups, beams_per_group=beams_per_group, lam=lam,
                     max_len=max_len, min_len=min_len, vocab_size=model.config.vocab_size)
    if state is None:
        search.state = model.encode(src_ids)
    return _run_wave(model, [search], vocab)[0][0]


def _ordinal_tokens(position: int, vocab_size: int) -> tuple[int, ...]:
    """Encode an item's position as non-special token ids (base vocab-3)."""
    usable = vocab_size - 3
    if usable <= 0:
        raise IdSpaceExhausted("vocabulary has no non-special tokens for the ordinal fallback")
    digits = []
    remaining = position
    while True:
        digits.append(3 + remaining % usable)
        remaining //= usable
        if remaining == 0:
            break
    return tuple(reversed(digits))


def allocate_all(model, items: list[tuple[str, str]], vocab: Vocabulary,
                 config: AllocatorConfig) -> IdRegistry:
    """Allocate a unique textual ID for every (item_key, flattened_text).

    Items are processed in input order; each starts at (lam_init, first
    length range) and escalates on full duplication. A rung whose previous
    rung of the same length range was answered by a `penalty_free` search
    takes that search's candidates instead of searching again. Searches
    whose need is certain run together as waves (module doc): the first
    rung of every distinct text before the first item, and the first rung
    of a later range for every text the pigeonhole rule says will need it;
    any other search runs on demand as a wave of one. The ordinal fallback
    is recorded per item and logged, never silent.
    """
    if not items:
        raise ValueError("items must be non-empty")
    keys: set[str] = set()
    for key, _ in items:
        if key in keys:
            raise ValueError(f"duplicate item key {key!r} in allocation input")
        keys.add(key)
    capacity = model.config.max_tgt_len - 1  # teacher forcing spends one step on EOS
    # the escalation ladder: every penalty of each length range that fits, in order
    rungs: list[tuple[int, int, int, float]] = []  # (range_index, min_len, max_len, lam)
    for range_index, (lo, hi) in enumerate(config.length_ranges):
        max_len = min(hi - 1, capacity)
        lam = config.lam_init
        while lo <= max_len and lam <= config.lam_max + 1e-12:
            rungs.append((range_index, lo, max_len, lam))
            lam += config.lam_step
    if not rungs:
        raise ValueError(
            f"no length range fits the decoder capacity {capacity}: {config.length_ranges}"
        )
    first_rung = {}  # range_index -> its first rung
    for rung, (range_index, *_) in enumerate(rungs):
        first_rung.setdefault(range_index, rung)
    ids: dict[str, TextualId] = {}
    rows: list[AllocationRow] = []
    taken: set[str] = set()
    # per distinct text: encoder state, logprob cache, rung -> DBS candidates
    per_text: dict[str, tuple[object, dict, dict[int, Candidates]]] = {}
    for _, text in items:
        if text not in per_text:
            per_text[text] = (model.encode(vocab.encode(text, model.config.max_src_len)), {}, {})
    left = Counter(text for _, text in items)  # items not yet processed, per text
    waves: list[tuple[int, WaveStats]] = []  # (searches, what it ran) per wave
    on_demand = answered = 0  # searches run alone; rungs answered by a penalty-free search

    def search(texts: list[str], rung: int) -> WaveStats:
        """Run `rung` for each of `texts` as one wave."""
        _, lo, max_len, lam = rungs[rung]
        found, stats = _run_wave(model, [
            _Search(per_text[text][0], per_text[text][1], groups=config.groups,
                    beams_per_group=config.beams_per_group, lam=lam, max_len=max_len, min_len=lo,
                    vocab_size=model.config.vocab_size)
            for text in texts], vocab)
        for text, candidates in zip(texts, found):
            per_text[text][2][rung] = candidates
        return stats

    waves.append((len(per_text), search(list(per_text), 0)))
    for position, (key, text) in enumerate(items):
        left[text] -= 1
        by_rung = per_text[text][2]
        for rung, (range_index, lo, max_len, lam) in enumerate(rungs):
            if rung not in by_rung:
                # items climb the ladder in order, so the rung below was reached
                below = by_rung[rung - 1]
                if below.penalty_free and rungs[rung - 1][0] == range_index:
                    by_rung[rung] = below
                    answered += 1
                elif rung == first_rung[range_index]:
                    # a text whose range below was answered by one penalty-free search
                    # with fewer untaken candidates than items left will need this rung
                    below_first = first_rung[rungs[rung - 1][0]]
                    wave = [text] + [
                        other for other, (_, _, got) in per_text.items()
                        if other != text and rung not in got and below_first in got
                        and got[below_first].penalty_free
                        and left[other] > len({c.text for c in got[below_first]} - taken)]
                    waves.append((len(wave), search(wave, rung)))
                else:
                    search([text], rung)
                    on_demand += 1
            accepted = next((c for c in by_rung[rung] if c.text not in taken), None)
            if accepted is not None:
                row = AllocationRow(key=key, lam=lam, range_index=range_index)
                break
        else:
            base = by_rung[len(rungs) - 1][0].tokens
            attempt = 0
            while True:
                suffix = _ordinal_tokens(position + attempt * len(items), vocab.size)
                if len(suffix) > capacity:
                    raise IdSpaceExhausted(f"cannot disambiguate item {key!r} within "
                                           f"decoder capacity {capacity}")
                tokens = base[: capacity - len(suffix)] + suffix
                if vocab.decode(tokens) not in taken:
                    break
                attempt += 1
            accepted = TextualId(tokens=tokens, text=vocab.decode(tokens))
            row = AllocationRow(key=key, lam=config.lam_max, range_index=-1)
            log.warning("item %r exhausted all penalties and lengths; ordinal fallback ID %r",
                        key, accepted.text)
        ids[key] = accepted
        taken.add(accepted.text)
        rows.append(row)

    registry = IdRegistry(ids=ids, rows=tuple(rows), generator_hash=model.param_hash())
    stats = registry.stats(lam_init=config.lam_init)
    if stats["fallback_count"]:
        log.warning("allocation used the ordinal fallback for %d items", int(stats["fallback_count"]))
    def per_wave(values) -> str:
        return "/".join(map(str, values))

    log.info("allocated %d ids: %.2f%% needed lambda escalation, %.2f%% needed length extension; "
             "%d searches, %d rungs answered by a penalty-free search; %d waves of %s searches "
             "in %s lanes, %s decoder passes, %s layer-0 table entries; %d searches on demand",
             len(ids), 100 * stats["fraction_lambda_escalated"], 100 * stats["fraction_length_extended"],
             sum(n for n, _ in waves) + on_demand, answered, len(waves), per_wave(n for n, _ in waves),
             per_wave(ran.lanes for _, ran in waves), per_wave(ran.passes for _, ran in waves),
             per_wave(ran.entries for _, ran in waves), on_demand)
    return registry


def profile_source(history_texts: list[str], vocab: Vocabulary, max_src_len: int) -> list[int]:
    """Generator source ids of a user profile: the history texts joined."""
    return vocab.encode("; ".join(history_texts), max_src_len)


def generate_user_ids(model, histories: list[list[str]], vocab: Vocabulary,
                      config: AllocatorConfig) -> tuple[list[TextualId], WaveStats]:
    """A profile ID for each user history (its texts, concatenated), in
    order, all generated as one wave; and what the wave ran.

    User IDs are not registered for uniqueness; two users may share one.
    """
    if not all(histories):
        raise ValueError("history_texts must be non-empty")
    lo, hi = config.length_ranges[0]
    max_len = min(hi - 1, model.config.max_tgt_len - 1)  # one step is left for EOS
    if lo > max_len:
        raise ValueError(f"length range {(lo, hi)} does not fit the decoder capacity {max_len}")
    found, ran = _run_wave(model, [
        _Search(model.encode(profile_source(texts, vocab, model.config.max_src_len)), None, groups=1,
                beams_per_group=config.beams_per_group, lam=config.lam_init, max_len=max_len,
                min_len=lo, vocab_size=model.config.vocab_size)
        for texts in histories], vocab)
    return [candidates[0] for candidates in found], ran


def generate_user_id(model, history_texts: list[str], vocab: Vocabulary,
                     config: AllocatorConfig) -> TextualId:
    """Generate a profile ID from the concatenated history texts: a wave of
    one (`generate_user_ids`)."""
    return generate_user_ids(model, [history_texts], vocab, config)[0][0]
