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
        """Join tokens with single spaces, skipping PAD and EOS."""
        words = []
        for i in ids:
            i = int(i)
            if i >= self.size or i < 0:
                raise InvalidTokenId(f"token id {i} outside vocabulary of size {self.size}")
            if i in (PAD_ID, EOS_ID):
                continue
            words.append(self.id_to_token[i])
        return " ".join(words)

    def save_tsv(self, path: str | Path) -> None:
        lines = [f"{tok}\t{i}" for i, tok in enumerate(self.id_to_token)]
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load_tsv(cls, path: str | Path) -> "Vocabulary":
        tokens: list[str] = []
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if not line:
                continue
            tok, idx = line.split("\t")
            if int(idx) != len(tokens):
                raise ValueError(f"non-contiguous id {idx} in {path}")
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
