"""Deterministic word-level tokenizer with a corpus-built vocabulary.

The vocabulary is shared by the ID generator and the base recommender;
token id assignments are stable across runs for file-format stability.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

PAD_ID, EOS_ID, UNK_ID = 0, 1, 2
PAD_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<eos>", "<unk>"
SPECIAL_TOKENS = (PAD_TOKEN, EOS_TOKEN, UNK_TOKEN)
_UNSPOKEN = frozenset((PAD_ID, EOS_ID))  # ids `Vocabulary.decode` skips

# Word runs and digit runs stay whole; punctuation splits into single-char
# tokens. The special surface forms are recognized atomically so that
# decode -> encode round-trips.
_TOKEN_RE = re.compile(r"<pad>|<eos>|<unk>|[a-z]+|[0-9]+|[^a-z0-9\s]")


class InvalidTokenId(ValueError):
    """A token id outside the vocabulary was passed to decode."""


def tokenize(text: str) -> list[str]:
    """Lowercase and split `text` into word, digit-run, and punctuation tokens."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Vocabulary:
    """Bijective token<->id map with PAD/EOS/UNK pinned at ids 0..2."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def content_hash(self) -> str:
        payload = "\n".join(self.id_to_token).encode("utf-8")
        return hashlib.sha256(payload).hexdigest()

    def encode(self, text: str, max_len: int | None = None) -> list[int]:
        """Tokenize `text`; unknown tokens map to UNK; truncate to `max_len`."""
        ids = [self.token_to_id.get(tok, UNK_ID) for tok in tokenize(text)]
        if max_len is not None:
            ids = ids[:max_len]
        return ids

    def decode(self, ids: Iterable[int]) -> str:
        """Join tokens with single spaces, skipping PAD and EOS. The first id
        outside the vocabulary, in order, is an InvalidTokenId."""
        tokens = self.id_to_token
        size = len(tokens)
        ints = [int(i) for i in ids]
        if ints and (min(ints) < 0 or max(ints) >= size):
            bad = next(i for i in ints if not 0 <= i < size)
            raise InvalidTokenId(f"token id {bad} outside vocabulary of size {size}")
        return " ".join([tokens[i] for i in ints if i not in _UNSPOKEN])

    def save_tsv(self, path: str | Path) -> None:
        lines = [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocabulary":
        """Read what `save_tsv` writes. A row without a tab, with an id that
        is not the next integer, or with a token already read is a
        ValueError naming the file and the line."""
        tokens: list[str] = []
        line_of: dict[str, int] = {}  # token -> its line
        for number, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
            if not line:
                continue
            tok, tab, idx = line.partition("\t")
            if not tab:
                raise ValueError(f"{path}:{number}: expected a token, a tab and its id")
            try:
                value = int(idx)
            except ValueError:
                raise ValueError(f"{path}:{number}: id {idx!r} is not an integer") from None
            if value != len(tokens):
                raise ValueError(f"{path}:{number}: non-contiguous id {value}, expected {len(tokens)}")
            if tok in line_of:
                raise ValueError(f"{path}:{number}: token {tok!r} already on line {line_of[tok]}")
            line_of[tok] = number
            tokens.append(tok)
        if tuple(tokens[:3]) != SPECIAL_TOKENS:
            raise ValueError(f"{path} does not start with the special tokens")
        return cls(id_to_token=tuple(tokens), token_to_id={t: i for i, t in enumerate(tokens)})


def build_vocab(texts: Iterable[str], min_freq: int = 2, max_size: int = 8192) -> Vocabulary:
    """Build a vocabulary from raw texts.

    Tokens with frequency >= `min_freq` are kept, most frequent first with
    lexicographic tie-break, truncated to `max_size` - 3 to leave room for
    the specials. Construction is independent of text ordering.
    """
    if max_size < len(SPECIAL_TOKENS):
        raise ValueError(f"max_size must be >= {len(SPECIAL_TOKENS)} (the special tokens)")
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    counts: Counter[str] = Counter()
    for text in texts:
        counts.update(tokenize(text))
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_freq and tok not in SPECIAL_TOKENS),
        key=lambda tok: (-counts[tok], tok),
    )[: max_size - len(SPECIAL_TOKENS)]
    id_to_token = SPECIAL_TOKENS + tuple(kept)
    return Vocabulary(id_to_token=id_to_token, token_to_id={t: i for i, t in enumerate(id_to_token)})
