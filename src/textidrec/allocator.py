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

Prefixes are node ids. The logprob cache (`LogprobCache`) is a decode
cache (`DecodeCache`, see `model.py`) with a root per text or history,
holding its encoder state: a node is its parent node plus one token, and
keeps its decoder state once decoded. Each decoded node is ranked once:
the cache keeps, per node, its `width = min(V, groups * beams_per_group +
1)` best next tokens (log-probs as float64, ids as int32), best first,
equal log-probs in token order, PAD and UNK ranked as -inf, and the child
node each ranked token leads to, made when a beam first picks it. These
are (nodes, width) arrays indexed by node id like the trie's own, so there
is one id space. A beam is a (node, total) pair, so no prefix tuple is
built while a search runs. A block is ranked as a stable argsort would
rank it, by numpy's default sort and a stable sort of only the rows whose
first `width + 1` keys hold a tie (`_ranked`).

A beam of group g (from 0) keeps the best `beams_per_group` of the first
`min(width, beams_per_group * (g + 1) + banned)` of its ranked tokens by
(-penalized value, token), where `banned` is 1 while EOS is banned. That
equals a stable argsort of the whole penalized row: the groups before g
penalize at most `beams_per_group * g` tokens, so those columns hold
`beams_per_group` unpenalized tokens, and a token past the last of them
has a value no higher, a larger token on an equal value, and a penalty
that only lowers it. (Stopping there, as a walk down the list would, keeps
the same picks.) The last group may reach every column, hence `width`.

Searches run as waves. A wave is one search over each of a list of tries
of one logprob cache, all with one set of settings (groups, beams per
group, lam, lengths), advancing in lockstep (`_Wave`). A wave holds its
beams as (searches, groups, beams_per_group) arrays of nodes, totals,
liveness and each beam's lexicographic rank in its group. A step asks one
`wave_logits` call for the live nodes the logprob cache has not ranked,
and ranks each pass's rows into the cache as its logits return. Then each
group, in group order, picks for every search of the wave at once, in a
few array operations:
- gather the ranked values and tokens of its beams' columns that its
  penalties can reach (above), (searches, beams, columns);
- subtract the penalties gathered at those tokens, from a (searches, V)
  array of lam times the picks of the groups before it, EOS at +inf while
  t < min_len;
- keep each beam's best `beams_per_group` by (-penalized value, token);
- keep each search's best `beams_per_group` of those by (-total, prefix,
  token). All of a group's beams have one length, so a prefix compares as
  its beam's rank, and a new beam's rank follows from its parent's rank and
  its token;
- count the picks into the penalties; an EOS pick completes its beam.
Absent or finished beams are masked. After the last group, one call names
the nodes of every group's new beams, in group order, each (node, token)
pair made once, at its first pick: the ids that a call per group gives,
since no group reads another's nodes. A node the logprob cache already
ranked is not asked for, and a node asked for has a ranked parent: the
cache decoded that parent, in this wave or an earlier one, and kept its
state, so a wave decodes only the nodes it ranks. `diverse_beam_search` is
a wave of one search, so there is one search loop.

`allocate_all` forms waves only of searches it will certainly run, so each
text's searches, their order and their count are those of the one-item-
at-a-time ladder. An item starts at its text's floor, the rung at which
the text's last item was accepted (past the last rung after a fallback):
every candidate of a rung below it was taken then, and `taken` only grows.
A rung is known to a text that searched it, or whose penalty-free search
below it in its length range answers it (below). When an item reaches a
rung its text does not know, one wave runs that rung for every text u
that will certainly reach it: every rung from u's floor up to it is
known to u, and u has more items left than those rungs have candidates
not yet taken. Each item of u accepts at most one of those candidates,
so by pigeonhole some item of u reaches the rung. The item's own text is
such a u, as its item found no untaken candidate on the way; at the
first rung, before the first item, every text is one, so the first wave
holds every distinct text. The log line counts the waves and their
sizes.

A search that kept no penalized token answers every higher penalty of its
length range. Call a search penalty-free when, in every beam of every group
at every step, the best `beams_per_group` picks are all outside the penalty
set (a banned EOS counts as in it). The same search at any lam' >= lam then
returns the same candidates:
- a penalty is `lam * count`, so raising lam only lowers a penalized value,
  and float rounding keeps that monotone;
- which tokens carry a penalty depends on the counts, not on lam;
- the penalized tokens keep sorting after the unpenalized picks (equal
  values still break ties by token), so every beam keeps the same
  candidates with the same totals;
- so every group picks the same tokens, and the counts that later groups see
  are the same.
`diverse_beam_search` marks such a result `penalty_free`, and `allocate_all`
answers every later rung of that length range with it instead of searching
again.
"""

from __future__ import annotations

import hashlib
import logging
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import DecodeCache, NotFinite, log_softmax_rows
from .tokenizer import EOS_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, Vocabulary

log = logging.getLogger(__name__)

# Penalties per length range (rungs of the escalation ladder) an
# AllocatorConfig may ask for: items climb the ladder one rung at a time.
_MAX_PENALTIES = 1000

# Beams per search (groups * beams_per_group) an AllocatorConfig may ask for:
# a wave holds every beam of its searches, and ranks each node's best
# groups * beams_per_group + 1 tokens.
_MAX_BEAMS = 1000


class IdSpaceExhausted(RuntimeError):
    """A search found no decodable token: the vocabulary has no usable entry."""


@dataclass(frozen=True, slots=True)
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
        if self.groups * self.beams_per_group > _MAX_BEAMS:
            raise ValueError(f"groups * beams_per_group must be at most {_MAX_BEAMS}")
        # an infinite lam_max would make the escalation ladder endless
        if not all(map(math.isfinite, (self.lam_init, self.lam_step, self.lam_max))):
            raise ValueError("lam_init, lam_step and lam_max must be finite")
        if self.lam_init < 0:
            raise ValueError("lam_init must be >= 0")
        if self.lam_init > self.lam_max:
            raise ValueError("lam_init must not exceed lam_max")
        if self.lam_step <= 0:
            raise ValueError("lam_step must be positive")
        # counted, not built: `penalties` climbs by repeated addition, which stops
        # advancing once lam_step is at most half a unit in the last place of lam
        top = self.lam_max + 1e-12
        if self.lam_step <= math.ulp(top) / 2:
            raise ValueError(f"lam_step {self.lam_step} is too small to advance lam up to lam_max {self.lam_max}")
        if (top - self.lam_init) / self.lam_step >= _MAX_PENALTIES:
            raise ValueError(f"lam_init, lam_step and lam_max give over {_MAX_PENALTIES} penalties per length range")
        if not self.length_ranges:
            raise ValueError("length_ranges must be non-empty")
        previous_hi = 0
        for lo, hi in self.length_ranges:
            if not (0 < lo < hi) or lo < previous_hi:
                raise ValueError(f"length ranges must be increasing and disjoint: {self.length_ranges}")
            previous_hi = hi

    def penalties(self) -> list[float]:
        """The penalties of one length range's rungs, in order: lam_init, then
        each previous one plus lam_step, while not above lam_max."""
        lams = [self.lam_init]
        while lams[-1] + self.lam_step <= self.lam_max + 1e-12:
            lams.append(lams[-1] + self.lam_step)
        return lams


@dataclass(frozen=True, slots=True)
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


def _ranked(logits: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's `width` best next tokens, best first, equal log-probs in
    token order, PAD and UNK ranked as -inf: (rows, width) float64 log-probs
    and int32 token ids, the first `width` of a stable argsort of the
    negated row. A NaN or +inf logit makes its row's log-softmax NaN, which
    the ranked block then holds: that is a `NotFinite` error, as no search
    can rank NaN scores.

    The block is argsorted by numpy's default, unstable sort, keeping
    `width + 1` columns. A row whose kept keys strictly increase has no
    other order of equal keys among its `width` best, so they are the
    stable sort's; only the rows where two adjacent kept keys are equal are
    sorted again, stably."""
    keyed = log_softmax_rows(logits)
    keyed[:, [PAD_ID, UNK_ID]] = -np.inf
    np.negative(keyed, out=keyed)
    order = keyed.argsort(axis=1)[:, :width + 1]
    keys = keyed[np.arange(len(keyed))[:, None], order]
    tied = np.flatnonzero((keys[:, 1:] == keys[:, :-1]).any(axis=1))
    if tied.size:
        rows = keyed[tied]
        order[tied] = again = rows.argsort(axis=1, kind="stable")[:, :width + 1]
        keys[tied] = rows[np.arange(len(rows))[:, None], again]
    ranked = -keys[:, :width]
    if np.isnan(ranked).any():
        raise NotFinite("the ID generator's next-token logits are not finite: its parameters hold NaN or overflow")
    return ranked, order[:, :width].astype(np.int32)


class LogprobCache(DecodeCache):
    """The logprob cache: the prefix trie of every text (or history)
    searched, each under its own root with its encoder state, whose nodes
    keep their decoder state (`DecodeCache`), and the ranked next tokens of
    every node a search has scored, each ranked once and shared by every
    search of its text. `values`, `tokens` and `child` are node arrays like
    the trie's own: node k's row holds its `width` best next tokens as
    `_ranked` gives them (`width` is set by the first search), valid once k
    is decoded (`entry[k] >= 0`), since a wave ranks every node it decodes;
    `child[k, j]` is the node that extends k by `tokens[k, j]` (-1 until a
    beam picks it), so a beam's pick names its node without a lookup by
    prefix."""

    _NODE_ARRAYS = DecodeCache._NODE_ARRAYS + ("values", "tokens", "child")

    def __init__(self):
        super().__init__()
        self.width: int | None = None
        self.values, self.tokens, self.child = np.empty((0, 0)), np.empty((0, 0), np.int32), np.empty((0, 0), np.int32)

    def fit(self, width: int) -> None:
        """Make sure the rows rank at least `width` tokens: the first search
        sets the width."""
        if self.width is None:
            self.width, room = width, len(self.parent)
            self.values = np.empty((room, width))
            self.tokens, self.child = np.empty((room, width), np.int32), np.empty((room, width), np.int32)
        elif self.width < width:
            raise ValueError(f"logprob_cache holds the {self.width} best tokens per prefix; "
                             f"this search needs {width}")

    def store(self, nodes: np.ndarray, values: np.ndarray, tokens: np.ndarray) -> None:
        """Keep the ranked rows `values`, `tokens` as those of `nodes`."""
        self.values[nodes], self.tokens[nodes], self.child[nodes] = values, tokens, -1

    def children(self, nodes: np.ndarray, at: np.ndarray) -> np.ndarray:
        """The node that extends each of `nodes` (ranked) by its ranked token
        at position `at`, added if new. A pair (node, at) may repeat: a new
        one is added once, at its first occurrence, so new nodes get the ids
        that calls over the pairs one at a time would give them."""
        found = self.child[nodes, at]
        new = found < 0
        if new.any():
            nodes, at = nodes[new], at[new]
            first = np.sort(np.unique(nodes * self.width + at, return_index=True)[1])
            adding, adding_at = nodes[first], at[first]
            self.child[adding, adding_at] = self.add(adding, self.tokens[adding, adding_at])
            found[new] = self.child[nodes, at]
        return found

    def mark(self) -> tuple[int, np.ndarray, int]:
        return self.size, np.flatnonzero(self.entry[:self.size] < 0), len(self.entry_of)

    def rollback(self, mark: tuple[int, np.ndarray, int]) -> None:
        """Forget every node and table entry added since `mark` was taken,
        and the decoder state and ranked row of the nodes decoded since: the
        nodes undecoded at the mark."""
        size, undecoded, entries = mark
        self.entry[undecoded] = -1
        children = self.child[:size]
        children[children >= size] = -1
        self.entry_of = dict(list(self.entry_of.items())[:entries])
        self.size = size


class Candidates(list):
    """One TextualId per group, in group order: a plain list, plus whether the
    search kept no penalized token, so that every higher lam returns the same
    list (module doc)."""

    penalty_free = False


class _Wave:
    """The diverse beam searches of one wave, one over the trie under each
    of `roots` in the logprob cache `cache`, with one set of settings, run in
    lockstep as arrays (module doc). Beam b of group g of search s is
    node[s, g, b] with total score[s, g, b] where live[s, g, b]; rank[s, g,
    b] is its prefix's place in lexicographic order among its group's
    beams. `done` gathers the completions, per group step: (searches,
    group, totals, nodes)."""

    def __init__(self, cache: LogprobCache, roots, *, groups: int, beams_per_group: int, lam: float,
                 max_len: int, min_len: int, vocab_size: int):
        if not 0 <= lam < np.inf or max_len < 1 or min_len < 1:
            raise ValueError("lam must be finite and >= 0, and max_len/min_len >= 1")
        self.cache, self.lam, self.min_len, self.max_len, self.vocab_size = cache, lam, min_len, max_len, vocab_size
        # earlier groups penalize at most beams_per_group * (groups - 1) tokens, and
        # EOS may be banned: one more than that leaves every beam its top-k (module doc)
        self.width = min(vocab_size, groups * beams_per_group + 1)
        cache.fit(self.width)
        shape = (len(roots), groups, beams_per_group)
        self.node = np.empty(shape, dtype=np.int64)
        self.node[...] = np.asarray(roots, dtype=np.int64)[:, None, None]
        self.score = np.zeros(shape)
        self.live = np.zeros(shape, dtype=bool)
        self.live[:, :, 0] = True
        self.rank = np.zeros(shape, dtype=np.int64)
        self.penalty_free = np.ones(len(roots), dtype=bool)  # no kept top pick was penalized
        self.done: list[tuple[np.ndarray, int, np.ndarray, np.ndarray]] = []
        self.t = 0

    def missing(self) -> np.ndarray:
        """The live beams' nodes that the logprob cache has not ranked, each
        once, in beam order."""
        nodes = self.node[self.live]
        nodes = nodes[np.sort(np.unique(nodes, return_index=True)[1])]
        return nodes[self.cache.entry[nodes] < 0]

    def step(self) -> None:
        """Step t: every group picks its beams, in group order, from the
        ranked columns of its beams' nodes that its penalties can reach, all
        searches at once; then one `LogprobCache.children` call names the
        nodes of every group's new beams, in group order (module doc)."""
        cache, lam, vocab_size = self.cache, self.lam, self.vocab_size
        searches, groups, beams = self.node.shape
        k = min(beams, self.width)
        banned = int(self.t < self.min_len)
        s2, b3 = np.arange(searches)[:, None], np.arange(beams)[:, None]
        s3, row = s2[..., None], s2 * vocab_size  # row: each search's offset in the flat arrays below
        # per search, flat (searches * V): picks at step t by the groups done so far, lam
        # times that count (the penalty), and the penalty set; EOS is banned while every
        # live beam is short
        counts = np.zeros(searches * vocab_size, dtype=np.int64)
        penalty = np.zeros(searches * vocab_size)
        marked = np.zeros(searches * vocab_size, dtype=bool)
        if banned:
            penalty[EOS_ID::vocab_size], marked[EOS_ID::vocab_size] = np.inf, True
        stepped = np.flatnonzero(self.live.any(axis=(0, 2)))
        parents, picked_at = np.empty((2, len(stepped), searches, beams), dtype=np.int64)
        for i, g in enumerate(stepped.tolist()):
            live, node, rank = self.live[:, g], self.node[:, g], self.rank[:, g]
            # each beam's best k by (-penalized value, token): earlier groups penalize
            # at most beams * g tokens, so they lie in its first k + beams * g ranked
            # columns, one more while EOS is banned (module doc). A beam that is not
            # live holds its root or a node a live beam held before, so it is ranked
            columns = min(self.width, k + beams * g + banned)
            token = cache.tokens[node, :columns]
            value = cache.values[node, :columns] - penalty[row[..., None] + token]
            at = np.lexsort((token, -value))[..., :k]
            value, token = value[s3, b3, at], token[s3, b3, at]
            if self.penalty_free.any():
                self.penalty_free &= ~(marked[row[..., None] + token] & live[..., None]).any(axis=(1, 2))
            # the group's best beams_per_group by (-total, prefix, token)
            total = (self.score[:, g, :, None] + value).reshape(searches, -1)
            finite = (live[..., None] & np.isfinite(value)).reshape(searches, -1)
            token, at = token.reshape(searches, -1), at.reshape(searches, -1)
            pick = np.lexsort((token, np.repeat(rank, k, axis=1), np.where(finite, -total, np.inf)))[:, :beams]
            ok, token, total, at, beam = finite[s2, pick], token[s2, pick], total[s2, pick], at[s2, pick], pick // k
            chosen = (row + token)[ok]
            counts += np.bincount(chosen, minlength=len(counts))
            penalty[chosen] = lam * counts[chosen]
            marked[chosen] = True
            parents[i], picked_at[i] = node[s2, beam], at
            ended = ok & (token == EOS_ID)
            if ended.any():
                self.done.append((np.nonzero(ended)[0], g, total[ended], parents[i][ended]))
            grows = ok ^ ended
            # the new beams' lexicographic order: by their parents', then by token
            rank[s2, np.lexsort((token, rank[s2, beam], ~grows))] = np.arange(beams)
            self.score[:, g], self.live[:, g] = total, grows
        # every group's new beams name their nodes in one call, in group order
        grows = self.live[:, stepped].swapaxes(0, 1)
        parents[grows] = cache.children(parents[grows], picked_at[grows])
        self.node[:, stepped] = parents.swapaxes(0, 1)
        self.t += 1

    def run(self, model) -> None:
        """Step the searches to their ends: a step asks for the nodes that
        the logprob cache lacks in one `wave_logits` call, ranking each
        pass's rows into the cache as its logits return."""
        cache = self.cache
        searches, groups, beams = self.node.shape
        # the nodes the searches add at most: one per beam and step
        cache.reserve(cache.size + searches * groups * beams * self.max_len)
        while self.t < self.max_len and self.live.any():
            nodes = self.missing()

            def rank(indices: np.ndarray, logits: np.ndarray) -> None:
                cache.store(nodes[indices], *_ranked(logits, cache.width))

            model.wave_logits(cache, nodes, rank)
            self.step()

    def results(self, vocab: Vocabulary) -> list[Candidates]:
        """Each search's candidates: per group, its best completion by
        (-total, prefix), the beams that reached max_len included."""
        searches, groups, _ = self.node.shape
        search, group, _ = np.nonzero(self.live)
        done = self.done + [(search, group, self.score[self.live], self.node[self.live])]
        search = np.concatenate([d[0] for d in done])
        group = np.concatenate([np.broadcast_to(d[1], d[0].shape) for d in done])
        total, node = np.concatenate([d[2] for d in done]), np.concatenate([d[3] for d in done])
        key = search * groups + group
        order = np.lexsort((-total, key))
        key, total, node = key[order], total[order], node[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        if len(first) < searches * groups:
            raise IdSpaceExhausted("no decodable token: vocabulary has no usable entries")
        best = node[first]
        # equal best totals: the smaller prefix wins
        ends = np.r_[first[1:], len(key)]
        for i in np.flatnonzero((ends > first + 1) & (total[np.minimum(first + 1, len(key) - 1)] == total[first])):
            ties = node[first[i]:ends[i]][total[first[i]:ends[i]] == total[first[i]]]
            prefixes = self.cache.prefixes(ties)
            best[i] = ties[prefixes.index(min(prefixes))]
        unique, inverse = np.unique(best, return_inverse=True)
        ids = [TextualId(tokens=p, text=vocab.decode(p)) for p in self.cache.prefixes(unique)]
        results = []
        for s in range(searches):
            candidates = Candidates(ids[i] for i in inverse[s * groups:(s + 1) * groups].tolist())
            candidates.penalty_free = bool(self.penalty_free[s])
            results.append(candidates)
        return results


@dataclass(frozen=True)
class WaveStats:
    """What a wave ran: its decoder passes and the layer-0 table entries it
    added."""

    passes: int
    entries: int


def _run_wave(model, cache: LogprobCache, roots: list[int], vocab: Vocabulary,
              **settings) -> tuple[list[Candidates], WaveStats]:
    """Run a search over the trie under each of `roots` of `cache`, all with
    `settings` (groups, beams_per_group, lam, max_len, min_len), as one wave
    in lockstep (`_Wave`). Returns each search's candidates and what the
    wave ran. A wave that raises leaves the logprob cache as it was."""
    if len(set(roots)) < len(roots):
        raise ValueError("the searches of one wave need distinct tries")
    wave = _Wave(cache, roots, vocab_size=model.config.vocab_size, **settings)
    mark, passes = cache.mark(), cache.passes
    try:
        wave.run(model)
        return wave.results(vocab), WaveStats(cache.passes - passes, len(cache.entry_of) - mark[2])
    except BaseException:
        cache.rollback(mark)
        raise


def diverse_beam_search(model, src_ids, vocab: Vocabulary, *, groups: int,
                        beams_per_group: int, lam: float, max_len: int,
                        min_len: int = 1, state=None,
                        logprob_cache: LogprobCache | None = None) -> Candidates:
    """Return one candidate per group, in group order (possibly duplicates).

    Group g's candidate token score is its log-probability minus `lam` times
    the number of times earlier groups selected that token at the same
    timestep. PAD and UNK are banned everywhere; EOS is banned while the
    sequence is shorter than `min_len`. All groups advance in lockstep: one
    scoring call per timestep covers every live beam, then the groups pick
    their tokens in order. A given `logprob_cache` holds one text's trie,
    under its first root, which is added with the text's encoder state when
    the cache is empty (a later call searches against that state); one whose
    first search kept fewer ranked tokens per prefix than this one needs is
    a ValueError. The result is `penalty_free` when no beam kept a penalized
    token. This is a wave of one search (`_run_wave`).
    """
    cache = LogprobCache() if logprob_cache is None else logprob_cache
    if not cache.size:
        cache.new_root(model.encode(src_ids) if state is None else state)
    return _run_wave(model, cache, [0], vocab, groups=groups, beams_per_group=beams_per_group, lam=lam,
                     max_len=max_len, min_len=min_len)[0][0]


def _ordinal_tokens(position: int, vocab_size: int) -> tuple[int, ...]:
    """Encode an item's position as non-special token ids (base vocab-3)."""
    usable = vocab_size - 3
    digits = []
    remaining = position
    while True:
        digits.append(3 + remaining % usable)
        remaining //= usable
        if remaining == 0:
            break
    return tuple(reversed(digits))


def usable_vocabulary(vocab: Vocabulary, where: str) -> Vocabulary:
    """`vocab`, if it has the two usable (non-special) tokens that ID
    allocation needs, since the ordinal fallback counts in base (usable
    tokens); fewer is a ValueError naming `where`. The CLI checks the
    vocabulary it builds, a bundle the one it loads, and `allocate_all`
    every one it is given."""
    usable = vocab.size - len(SPECIAL_TOKENS)
    if usable < 2:
        raise ValueError(f"{where}: the vocabulary has {usable} usable tokens and ID allocation needs "
                         f"at least 2 (raise max_size or lower min_freq)")
    return vocab


def allocate_all(model, items: list[tuple[str, str]], vocab: Vocabulary,
                 config: AllocatorConfig) -> IdRegistry:
    """Allocate a unique textual ID for every (item_key, flattened_text).

    Items are processed in input order; each starts at (lam_init, first
    length range) and escalates on full duplication. A rung whose previous
    rung of the same length range was answered by a `penalty_free` search
    takes that search's candidates instead of searching again. When an
    item reaches a rung its text does not know, one wave runs that rung
    for every text that will certainly reach it (module doc): the first
    wave holds every distinct text's first rung. The ordinal fallback
    is recorded per item and logged, never silent.
    """
    if not items:
        raise ValueError("items must be non-empty")
    usable_vocabulary(vocab, "config section 'vocab'")
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
        if lo <= max_len:
            rungs += [(range_index, lo, max_len, lam) for lam in config.penalties()]
    if not rungs:
        raise ValueError(f"config section 'model': max_tgt_len {model.config.max_tgt_len} leaves room for "
                         f"{capacity} ID token(s), too few for the length ranges {config.length_ranges} "
                         f"of config section 'allocator'")
    ids: dict[str, TextualId] = {}
    rows: list[AllocationRow] = []
    taken: set[str] = set()
    # per distinct text: the root of its trie, which holds its encoder state, and
    # rung -> DBS candidates
    cache = LogprobCache()
    per_text: dict[str, tuple[int, dict[int, Candidates]]] = {}
    for _, text in items:
        if text not in per_text:
            per_text[text] = (cache.new_root(model.encode(vocab.encode(text, model.config.max_src_len))), {})
    left = Counter(text for _, text in items)  # items not yet accepted, per text
    waves: list[tuple[int, WaveStats]] = []  # (searches, what it ran) per wave
    answered = 0  # rungs answered by a penalty-free search
    # per text: the rung its last item was accepted at (all rungs after a fallback);
    # the rungs below hold only taken candidates, and `taken` only grows
    floor = dict.fromkeys(per_text, 0)

    def answer(got: dict[int, Candidates], rung: int) -> Candidates | None:
        """What `rung` holds for a text whose known rungs are `got`: its own
        search, or a penalty-free search below it in its length range; None
        while the rung is unknown."""
        below = rung
        while below not in got and below and rungs[below - 1][0] == rungs[below][0]:
            below -= 1
        found = got.get(below)
        return found if found is not None and (below == rung or found.penalty_free) else None

    def needs(text: str, rung: int) -> bool:
        """Whether an item of `text` will certainly reach `rung`, a rung the
        text does not know: every rung from its floor up to `rung` is known,
        and it has more items left than those rungs have untaken candidates
        (module doc)."""
        if not left[text]:
            return False
        got, untaken = per_text[text][1], set()
        for known in range(floor[text], rung):
            found = answer(got, known)
            if found is None:
                return False
            untaken.update(c.text for c in found)
        return answer(got, rung) is None and left[text] > len(untaken - taken)

    for position, (key, text) in enumerate(items):
        by_rung = per_text[text][1]
        for rung in range(floor[text], len(rungs)):
            range_index, lo, max_len, lam = rungs[rung]
            if rung not in by_rung:
                found = answer(by_rung, rung)
                if found is not None:
                    by_rung[rung] = found
                    answered += 1
                else:
                    wave = [other for other in per_text if needs(other, rung)]
                    results, ran = _run_wave(model, cache, [per_text[other][0] for other in wave], vocab,
                                             groups=config.groups, beams_per_group=config.beams_per_group,
                                             lam=lam, max_len=max_len, min_len=lo)
                    for other, candidates in zip(wave, results):
                        per_text[other][1][rung] = candidates
                    waves.append((len(wave), ran))
            accepted = next((c for c in by_rung[rung] if c.text not in taken), None)
            if accepted is not None:
                row = AllocationRow(key=key, lam=lam, range_index=range_index)
                break
        else:
            rung = len(rungs)
            base = by_rung[rung - 1][0].tokens
            attempt = 0
            while True:
                suffix = _ordinal_tokens(position + attempt * len(items), vocab.size)
                if len(suffix) > capacity:  # a longer decoder would hold it
                    raise ValueError(f"config section 'model': max_tgt_len {model.config.max_tgt_len} leaves room "
                                     f"for {capacity} ID token(s), too few to tell item {key!r} apart "
                                     f"(raise max_tgt_len)")
                tokens = base[: capacity - len(suffix)] + suffix
                if vocab.decode(tokens) not in taken:
                    break
                attempt += 1
            accepted = TextualId(tokens=tokens, text=vocab.decode(tokens))
            row = AllocationRow(key=key, lam=config.lam_max, range_index=-1)
            log.debug("item %r exhausted all penalties and lengths; ordinal fallback ID %r",
                      key, accepted.text)
        ids[key] = accepted
        taken.add(accepted.text)
        rows.append(row)
        floor[text] = rung
        left[text] -= 1

    registry = IdRegistry(ids=ids, rows=tuple(rows), generator_hash=model.param_hash())
    stats = registry.stats(lam_init=config.lam_init)
    if stats["fallback_count"]:
        log.warning("allocation used the ordinal fallback for %d items", int(stats["fallback_count"]))
    def per_wave(values) -> str:
        return "/".join(map(str, values))

    log.info("allocated %d ids: %.2f%% needed lambda escalation, %.2f%% needed length extension; "
             "%d searches, %d rungs answered by a penalty-free search; %d waves of %s searches, "
             "%s decoder passes, %s new layer-0 table entries",
             len(ids), 100 * stats["fraction_lambda_escalated"], 100 * stats["fraction_length_extended"],
             sum(n for n, _ in waves), answered, len(waves), per_wave(n for n, _ in waves),
             per_wave(ran.passes for _, ran in waves), per_wave(ran.entries for _, ran in waves))
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
    cache = LogprobCache()
    roots = [cache.new_root(model.encode(profile_source(texts, vocab, model.config.max_src_len)))
             for texts in histories]
    found, ran = _run_wave(model, cache, roots, vocab, groups=1, beams_per_group=config.beams_per_group,
                           lam=config.lam_init, max_len=max_len, min_len=lo)
    return [candidates[0] for candidates in found], ran


def generate_user_id(model, history_texts: list[str], vocab: Vocabulary,
                     config: AllocatorConfig) -> TextualId:
    """Generate a profile ID from the concatenated history texts: a wave of
    one (`generate_user_ids`)."""
    return generate_user_ids(model, [history_texts], vocab, config)[0][0]
