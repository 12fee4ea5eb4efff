import math
import random
from collections import Counter

import pytest

from conftest import make_vocab
from textidrec.allocator import TextualId
from textidrec.model import SequenceTooLong
from textidrec.prompting import (EmptyHistory, MissingUserId, Template, TemplateError,
                                 default_bank, load_templates, render_prompt,
                                 sample_template, save_templates)


def tid(vocab, text):
    return TextualId(tokens=tuple(vocab.encode(text)), text=text)


def test_default_bank_shape():
    bank = default_bank()
    assert len(bank) == 10
    assert [t.id for t in bank] == list(range(1, 11))
    with_user = [t for t in bank if t.has_user_slot]
    assert len(with_user) == 7
    assert not bank[0].has_user_slot  # evaluation template renders without a user ID


def test_template_validation():
    with pytest.raises(TemplateError):
        Template(1, "no placeholder here")
    with pytest.raises(TemplateError):
        Template(1, "{item_ids} and {item_ids}")
    with pytest.raises(TemplateError):
        Template(1, "{user_id} {user_id} {item_ids}")


def test_sample_template_reproducible_and_uniform():
    bank = default_bank()
    seq1 = [sample_template(random.Random(7), bank).id for _ in range(20)]
    # a fresh rng with the same seed replays the same draws
    rng = random.Random(7)
    seq2 = [sample_template(rng, bank).id for _ in range(1)]
    assert seq1[0] == seq2[0]
    rng = random.Random(123)
    counts = Counter(sample_template(rng, bank).id for _ in range(10_000))
    sigma = math.sqrt(10_000 * 0.1 * 0.9)
    for template_id in range(1, 11):
        assert abs(counts[template_id] - 1000) <= 3 * sigma


def test_sample_template_empty_bank():
    with pytest.raises(TemplateError):
        sample_template(random.Random(0), ())


def test_render_hand_example():
    words = ["user", "bought", ";", "predict", "next", "guitar", "fan",
             "fender", "strings", "tuner", "clip", ","]
    vocab = make_vocab(words)
    template = Template(1, "user {user_id} bought {item_ids} ; predict next")
    prompt = render_prompt(
        template,
        tid(vocab, "guitar fan"),
        [tid(vocab, "fender strings"), tid(vocab, "tuner clip")],
        vocab,
    )
    assert vocab.decode(prompt.tokens) == (
        "user guitar fan bought fender strings , tuner clip ; predict next"
    )
    assert len(prompt.spans) == 3
    roles = [(s.role, s.index) for s in prompt.spans]
    assert roles == [("user", 0), ("history", 0), ("history", 1)]
    for span, expected in zip(prompt.spans, ["guitar fan", "fender strings", "tuner clip"]):
        assert vocab.decode(prompt.tokens[span.start:span.end]) == expected


def test_render_single_item_no_user_slot():
    vocab = make_vocab(["buy", "next", "red", "hat"])
    template = Template(1, "buy {item_ids} next")
    prompt = render_prompt(template, None, [tid(vocab, "red hat")], vocab)
    assert len(prompt.spans) == 1
    assert prompt.spans[0].role == "history"


def test_render_errors():
    vocab = make_vocab(["a", "b"])
    with_user = Template(1, "{user_id} : {item_ids}")
    with pytest.raises(MissingUserId):
        render_prompt(with_user, None, [tid(vocab, "a")], vocab)
    item_only = Template(2, "{item_ids}")
    with pytest.raises(EmptyHistory):
        render_prompt(item_only, None, [], vocab)


def test_render_deterministic():
    vocab = make_vocab(["go", "red", "blue"])
    template = Template(1, "go {item_ids}")
    ids = [tid(vocab, "red"), tid(vocab, "blue")]
    assert render_prompt(template, None, ids, vocab) == render_prompt(template, None, ids, vocab)


def test_truncation_drops_oldest_whole_items():
    vocab = make_vocab(["go", "wa", "wb", "wc", "wd", ","])
    template = Template(1, "go {item_ids}")
    ids = [tid(vocab, w) for w in ("wa", "wb", "wc", "wd")]
    # full render: 1 template token + 4 ids + 3 separators = 8 tokens
    prompt = render_prompt(template, None, ids, vocab, max_src_len=6)
    texts = [vocab.decode(prompt.tokens[s.start:s.end]) for s in prompt.spans]
    assert texts == ["wb", "wc", "wd"]
    assert len(prompt.tokens) <= 6
    # spans stay whole and ordered
    assert all(s.end > s.start for s in prompt.spans)
    assert [s.index for s in prompt.spans] == [1, 2, 3]


def test_truncation_respects_max_history():
    vocab = make_vocab(["go", "wa", "wb", "wc", "wd", ","])
    template = Template(1, "go {item_ids}")
    ids = [tid(vocab, ("wa", "wb", "wc", "wd")[i % 4]) for i in range(30)]
    prompt = render_prompt(template, None, ids, vocab, max_history=5)
    assert sum(1 for s in prompt.spans if s.role == "history") == 5
    with pytest.raises(ValueError, match="max_history"):
        render_prompt(template, None, ids, vocab, max_history=0)


def test_truncation_failure_raises():
    vocab = make_vocab(["go", "wa", "wb"])
    template = Template(1, "go {item_ids}")
    long_id = TextualId(tokens=tuple(vocab.encode("wa wb wa wb wa")), text="wa wb wa wb wa")
    with pytest.raises(SequenceTooLong):
        render_prompt(template, None, [long_id], vocab, max_src_len=4)


def test_bank_file_round_trip(tmp_path):
    bank = default_bank()
    path = tmp_path / "templates.txt"
    save_templates(bank, path)
    assert load_templates(path) == bank
    path.write_text("1\tjust {item_ids}\n")
    with pytest.raises(TemplateError):
        load_templates(path)


def bank_lines() -> list[str]:
    return [f"{t.id}\t{t.text}" for t in default_bank()]


@pytest.mark.parametrize("lines,line,reason", [
    (bank_lines()[:2] + ["3 no tab {item_ids}"] + bank_lines()[3:], 3, "expected id<TAB>text"),
    (bank_lines()[:2] + ["three\t{item_ids}"] + bank_lines()[3:], 3,
     "template id must be an integer, got 'three'"),
    ([f"1\t{t.text}" for t in default_bank()], 2, "duplicate template id 1"),
    (bank_lines()[:4] + ["5\tno slot"] + bank_lines()[5:], 5, "{item_ids}"),
], ids=["missing_tab", "non_integer_id", "duplicated_id", "no_item_slot"])
def test_bank_file_with_a_bad_line_names_it(tmp_path, lines, line, reason):
    path = tmp_path / "templates.txt"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(TemplateError) as info:
        load_templates(path)
    assert str(info.value).startswith(f"{path}:{line}: ") and reason in str(info.value)
