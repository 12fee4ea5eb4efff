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
penalty resets. Models provide `config`, `encode`, `prefix_logits` (the only
step scorer) and `param_hash`.

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
"""

from __future__ import annotations

import hashlib
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import log_softmax_rows
from .tokenizer import EOS_ID, PAD_ID, UNK_ID, Vocabulary

log = logging.getLogger(__name__)


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


def _ranked_steps(model, state, prefixes: list[tuple[int, ...]], cache: dict | None,
                  width: int) -> list[tuple[memoryview, memoryview]]:
    """Each prefix's `width` best next tokens as (log-probs, token ids), best
    first, equal log-probs in token order, PAD and UNK ranked as -inf.

    Prefixes missing from `cache` are scored together in one `prefix_logits`
    call and ranked by one stable argsort. The cache maps a prefix to
    ((log-probs, ids, kept), row) of that call's ranked block: flat float64
    and int32 buffers holding `kept` tokens per row, stored once per block
    rather than row by row, and read through memoryviews, which yield Python
    numbers without a conversion per row.
    """
    cache = {} if cache is None else cache
    missing = list(dict.fromkeys(p for p in prefixes if p not in cache))
    if missing:
        block = log_softmax_rows(model.prefix_logits(state, missing))
        block[:, [PAD_ID, UNK_ID]] = -np.inf
        order = (-block).argsort(axis=1, kind="stable")[:, :width]
        ranked = (memoryview(np.take_along_axis(block, order, axis=1).ravel()),
                  memoryview(order.astype(np.int32).ravel()), order.shape[1])
        cache.update((p, (ranked, row)) for row, p in enumerate(missing))
    rows = []
    for (values, tokens, kept), row in map(cache.__getitem__, prefixes):
        if kept < width:
            raise ValueError(f"logprob_cache holds the {kept} best tokens per prefix; "
                             f"this search needs {width}")
        lo = row * kept
        rows.append((values[lo:lo + width], tokens[lo:lo + width]))
    return rows


def diverse_beam_search(model, src_ids, vocab: Vocabulary, *, groups: int,
                        beams_per_group: int, lam: float, max_len: int,
                        min_len: int = 1, state=None,
                        logprob_cache: dict | None = None) -> list[TextualId]:
    """Return one candidate per group, in group order (possibly duplicates).

    Group g's candidate token score is its log-probability minus `lam` times
    the number of times earlier groups selected that token at the same
    timestep. PAD and UNK are banned everywhere; EOS is banned while the
    sequence is shorter than `min_len`. All groups advance in lockstep: one
    scoring call per timestep covers every live beam, then the groups pick
    their tokens in order. A `logprob_cache` filled by a search that kept
    fewer ranked tokens per prefix than this one needs is a ValueError.
    """
    if not 0 <= lam < np.inf or max_len < 1 or min_len < 1:
        raise ValueError("lam must be finite and >= 0, and max_len/min_len >= 1")
    if state is None:
        state = model.encode(src_ids)
    # earlier groups penalize at most beams_per_group * (groups - 1) tokens, and
    # EOS may be banned: one more than that leaves every beam its top-k (module doc)
    width = min(model.config.vocab_size, groups * beams_per_group + 1)
    beams: list[list[tuple[tuple[int, ...], float]]] = [[((), 0.0)] for _ in range(groups)]
    completed: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(groups)]
    for t in range(max_len):
        if not any(beams):
            break
        ranked = iter(_ranked_steps(model, state, [seq for group in beams for seq, _ in group],
                                    logprob_cache, width))
        counts: dict[int, int] = {}  # picks at step t by the groups done so far
        # token -> lam * count; EOS is banned while every live beam (all t long) is short
        penalty = {EOS_ID: math.inf} if t < min_len else {}
        cost_of = penalty.get
        for g in range(groups):
            if not beams[g]:
                continue
            # sort keys as plain tuples: (-value, token) per beam, (-total, seq, token)
            # per group; negation is exact, so -(-x) gives back x bit for bit
            candidates = []
            for (seq, score), (values, tokens) in zip(beams[g], ranked):
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
                candidates += [(-(score - negative), seq, token)
                               for negative, token in picks[:beams_per_group] if math.isfinite(negative)]
            candidates.sort()
            beams[g] = []
            for negative, seq, token in candidates[:beams_per_group]:
                counts[token] = counts.get(token, 0) + 1
                penalty[token] = lam * counts[token]
                if token == EOS_ID:
                    completed[g].append((-negative, seq))
                else:
                    beams[g].append((seq + (token,), -negative))
    results: list[TextualId] = []
    for group_beams, done in zip(beams, completed):
        done.extend((score, seq) for seq, score in group_beams)  # hit max_len
        if not done:
            raise IdSpaceExhausted("no decodable token: vocabulary has no usable entries")
        done.sort(key=lambda c: (-c[0], c[1]))
        best_seq = done[0][1]
        results.append(TextualId(tokens=best_seq, text=vocab.decode(best_seq)))
    return results


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
    length range) and escalates on full duplication. The ordinal fallback is
    recorded per item and logged, never silent.
    """
    if not items:
        raise ValueError("items must be non-empty")
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
    ids: dict[str, TextualId] = {}
    rows: list[AllocationRow] = []
    taken: set[str] = set()
    # per distinct text: encoder state, logprob cache, rung -> DBS candidates
    per_text: dict[str, tuple[object, dict, dict[int, list[TextualId]]]] = {}

    for position, (key, text) in enumerate(items):
        if key in ids:
            raise ValueError(f"duplicate item key {key!r} in allocation input")
        if text not in per_text:
            per_text[text] = (model.encode(vocab.encode(text, model.config.max_src_len)), {}, {})
        state, logprob_cache, by_rung = per_text[text]
        for rung, (range_index, lo, max_len, lam) in enumerate(rungs):
            if rung not in by_rung:
                by_rung[rung] = diverse_beam_search(
                    model, None, vocab,
                    groups=config.groups, beams_per_group=config.beams_per_group,
                    lam=lam, max_len=max_len, min_len=lo,
                    state=state, logprob_cache=logprob_cache,
                )
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
    log.info("allocated %d ids: %.2f%% needed lambda escalation, %.2f%% needed length extension",
             len(ids), 100 * stats["fraction_lambda_escalated"], 100 * stats["fraction_length_extended"])
    return registry


def profile_source(history_texts: list[str], vocab: Vocabulary, max_src_len: int) -> list[int]:
    """Generator source ids of a user profile: the history texts joined."""
    return vocab.encode("; ".join(history_texts), max_src_len)


def generate_user_id(model, history_texts: list[str], vocab: Vocabulary,
                     config: AllocatorConfig) -> TextualId:
    """Generate a profile ID from the concatenated history texts.

    User IDs are not registered for uniqueness; two users may share one.
    """
    if not history_texts:
        raise ValueError("history_texts must be non-empty")
    src = profile_source(history_texts, vocab, model.config.max_src_len)
    lo, hi = config.length_ranges[0]
    max_len = min(hi - 1, model.config.max_tgt_len - 1)  # one step is left for EOS
    if lo > max_len:
        raise ValueError(f"length range {(lo, hi)} does not fit the decoder capacity {max_len}")
    return diverse_beam_search(
        model, src, vocab,
        groups=1, beams_per_group=config.beams_per_group,
        lam=config.lam_init, max_len=max_len, min_len=lo,
    )[0]
