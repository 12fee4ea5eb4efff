"""Prompt templates and rendering with recorded placeholder spans.

Prompts are built directly from token lists (template segments, interpolated
IDs, separators), so every interpolated ID's token positions are known
exactly. Those spans drive the embedding-level interpolation used when
training the ID generator.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .allocator import TextualId
from .model import SequenceTooLong
from .tokenizer import Vocabulary

ITEM_PLACEHOLDER = "{item_ids}"
USER_PLACEHOLDER = "{user_id}"

TEMPLATE_BANK_SIZE = 10

# Fixed default bank: templates 2-8 carry the optional user slot, 1/9/10 are
# item-only (template 1 is the evaluation template, so evaluation renders
# whether or not user IDs are enabled).
DEFAULT_TEMPLATES: tuple[tuple[int, str], ...] = (
    (1, "purchase history : {item_ids} ; predict the next possible item to be bought"),
    (2, "user {user_id} has purchased items {item_ids} ; predict the next possible item to be bought by the user"),
    (3, "here is the purchase history of user {user_id} : {item_ids} ; what will the user buy next"),
    (4, "user {user_id} bought {item_ids} ; recommend the next item for the user"),
    (5, "considering user {user_id} purchased {item_ids} ; which item comes next"),
    (6, "the user {user_id} owns items {item_ids} ; generate the id of the next item"),
    (7, "items {item_ids} were bought by user {user_id} ; predict what the user buys next"),
    (8, "given that user {user_id} interacted with {item_ids} ; the next item will be"),
    (9, "a user purchased the items {item_ids} ; predict the next item"),
    (10, "interaction sequence : {item_ids} ; continue the sequence with the next item"),
)


class TemplateError(ValueError):
    """A template or template bank violates the placeholder contract."""


class MissingUserId(ValueError):
    """The template has a user slot but no user ID was provided."""


class EmptyHistory(ValueError):
    """Cannot render a prompt with no history items."""


@dataclass(frozen=True)
class Template:
    id: int
    text: str

    def __post_init__(self) -> None:
        if self.text.count(ITEM_PLACEHOLDER) != 1:
            raise TemplateError(f"template {self.id} must contain {ITEM_PLACEHOLDER} exactly once")
        if self.text.count(USER_PLACEHOLDER) > 1:
            raise TemplateError(f"template {self.id} may contain {USER_PLACEHOLDER} at most once")

    @property
    def has_user_slot(self) -> bool:
        return USER_PLACEHOLDER in self.text


@dataclass(frozen=True)
class Span:
    """Token positions [start, end) of one interpolated ID inside a prompt.

    role is 'user' for the user-ID slot or 'history' with the item's
    position in the `item_ids` passed to `render_prompt`.
    """

    role: str
    index: int
    start: int
    end: int


@dataclass(frozen=True)
class Prompt:
    tokens: tuple[int, ...]
    spans: tuple[Span, ...]


def default_bank() -> tuple[Template, ...]:
    return tuple(Template(i, text) for i, text in DEFAULT_TEMPLATES)


def load_templates(path: str | Path) -> tuple[Template, ...]:
    """Load `id<TAB>text` lines; the bank must hold exactly 10 templates with
    distinct integer ids. A bad line is a TemplateError `<path>:<line>: ...`."""
    bank, seen = [], set()
    for n, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        ident, tab, text = line.partition("\t")
        try:
            if not tab:
                raise TemplateError(f"expected id<TAB>text, got {line!r}")
            try:
                ident = int(ident)
            except ValueError:
                raise TemplateError(f"template id must be an integer, got {ident!r}") from None
            if ident in seen:
                raise TemplateError(f"duplicate template id {ident}")
            bank.append(Template(ident, text))
        except TemplateError as exc:
            raise TemplateError(f"{path}:{n}: {exc}") from None
        seen.add(ident)
    if len(bank) != TEMPLATE_BANK_SIZE:
        raise TemplateError(f"{path}: template bank must hold exactly {TEMPLATE_BANK_SIZE} entries, "
                            f"got {len(bank)}")
    return tuple(bank)


def save_templates(bank: tuple[Template, ...], path: str | Path) -> None:
    Path(path).write_text("".join(f"{t.id}\t{t.text}\n" for t in bank), encoding="utf-8")


def sample_template(rng: random.Random, bank: tuple[Template, ...]) -> Template:
    """Uniform draw from the bank; deterministic under a seeded rng."""
    if not bank:
        raise TemplateError("template bank is empty")
    return bank[rng.randrange(len(bank))]


def _split_segments(text: str) -> list[str]:
    """Split template text into literal segments and placeholder markers."""
    parts: list[str] = []
    rest = text
    while rest:
        positions = [(rest.find(p), p) for p in (ITEM_PLACEHOLDER, USER_PLACEHOLDER) if rest.find(p) >= 0]
        if not positions:
            parts.append(rest)
            break
        pos, placeholder = min(positions)
        if pos > 0:
            parts.append(rest[:pos])
        parts.append(placeholder)
        rest = rest[pos + len(placeholder):]
    return parts


def render_prompt(template: Template, user_id: TextualId | None, item_ids: list[TextualId],
                  vocab: Vocabulary, max_src_len: int | None = None,
                  max_history: int = 20) -> Prompt:
    """Interpolate IDs into the template and record each ID's token span.

    History items are joined with ', ' in chronological order. Only the last
    `max_history` are rendered, and when the prompt exceeds `max_src_len`,
    whole oldest history items are dropped; a span is never split. A history
    span's index is its item's position in `item_ids`.
    """
    if not item_ids:
        raise EmptyHistory("item_ids must be non-empty")
    if max_history < 1:
        raise ValueError("max_history must be >= 1")
    if template.has_user_slot and user_id is None:
        raise MissingUserId(f"template {template.id} requires a user ID")
    first = max(0, len(item_ids) - max_history)
    sep_tokens = vocab.encode(",")
    segments = _split_segments(template.text)

    while True:
        tokens: list[int] = []
        spans: list[Span] = []
        for segment in segments:
            if segment == USER_PLACEHOLDER:
                start = len(tokens)
                tokens.extend(user_id.tokens)
                spans.append(Span("user", 0, start, len(tokens)))
            elif segment == ITEM_PLACEHOLDER:
                for j in range(first, len(item_ids)):
                    if j > first:
                        tokens.extend(sep_tokens)
                    start = len(tokens)
                    tokens.extend(item_ids[j].tokens)
                    spans.append(Span("history", j, start, len(tokens)))
            else:
                tokens.extend(vocab.encode(segment))
        if max_src_len is None or len(tokens) <= max_src_len:
            return Prompt(tokens=tuple(tokens), spans=tuple(spans))
        if first == len(item_ids) - 1:
            raise SequenceTooLong(
                f"prompt needs {len(tokens)} tokens with a single history item; limit is {max_src_len}"
            )
        first += 1
