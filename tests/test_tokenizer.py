import random

import numpy as np
import pytest

from textidrec.tokenizer import (EOS_ID, PAD_ID, UNK_ID, InvalidTokenId, Vocabulary,
                                 build_vocab, tokenize)


def test_min_freq_threshold():
    vocab = build_vocab(["a a b"], min_freq=2)
    assert "a" in vocab.token_to_id
    assert "b" not in vocab.token_to_id


def test_build_is_deterministic():
    texts = ["red hat red", "blue shoe blue shoe"]
    assert build_vocab(texts).id_to_token == build_vocab(texts).id_to_token


def test_lexicographic_tie_at_cutoff():
    # "cat" and "bat" both appear 3 times; only one slot remains after specials
    texts = ["cat bat"] * 3
    vocab = build_vocab(texts, min_freq=2, max_size=4)
    assert vocab.id_to_token[3] == "bat"
    assert "cat" not in vocab.token_to_id


def test_order_independence():
    texts = ["red hat", "blue shoe", "red shoe", "hat hat"]
    shuffled = list(texts)
    random.Random(3).shuffle(shuffled)
    assert build_vocab(texts).id_to_token == build_vocab(shuffled).id_to_token


def test_specials_pinned():
    vocab = build_vocab(["x x"])
    assert vocab.id_to_token[:3] == ("<pad>", "<eos>", "<unk>")
    assert (PAD_ID, EOS_ID, UNK_ID) == (0, 1, 2)


def test_tokenize_splits_punctuation_and_digits():
    assert tokenize("Name: zeppelin; stars: 4.0") == [
        "name", ":", "zeppelin", ";", "stars", ":", "4", ".", "0"
    ]


def test_encode_empty_and_unknown():
    vocab = build_vocab(["red red"])
    assert vocab.encode("") == []
    assert vocab.encode("purple orange green", max_len=5) == [UNK_ID] * 3
    assert vocab.encode("red red red", max_len=2) == [vocab.token_to_id["red"]] * 2


def test_decode_skips_pad_eos_and_validates():
    vocab = build_vocab(["red hat red hat"])
    assert vocab.decode([PAD_ID, EOS_ID]) == ""
    assert vocab.decode([vocab.token_to_id["red"], vocab.token_to_id["hat"]]) == "red hat"
    with pytest.raises(InvalidTokenId):
        vocab.decode([vocab.size])


def reference_decode(vocab: Vocabulary, ids) -> str:
    """`Vocabulary.decode` as a plain per-token loop."""
    words = []
    for i in ids:
        i = int(i)
        if i >= vocab.size or i < 0:
            raise InvalidTokenId(f"token id {i} outside vocabulary of size {vocab.size}")
        if i not in (PAD_ID, EOS_ID):
            words.append(vocab.id_to_token[i])
    return " ".join(words)


def test_decode_matches_a_per_token_loop_on_every_id():
    vocab = build_vocab(["red hat red hat ; 4 blue blue"])
    rng = random.Random(5)
    outside = [-1, -vocab.size, vocab.size, vocab.size + 7]
    cases = [[i] for i in range(vocab.size)] + [list(range(vocab.size)), [], range(vocab.size)]
    cases += [[rng.randrange(vocab.size) for _ in range(rng.randint(0, 9))] for _ in range(200)]
    # an id outside the vocabulary anywhere in the ids, numpy ints among them
    cases += [rng.sample(range(vocab.size), 3)[:k] + [bad] + [PAD_ID, bad + 1] for k in range(3) for bad in outside]
    cases += [np.array([3, vocab.size, -1]), np.array([EOS_ID, 4, PAD_ID], dtype=np.int32)]
    for ids in cases:
        try:
            want = reference_decode(vocab, ids)
        except InvalidTokenId as exc:
            with pytest.raises(InvalidTokenId) as got:
                vocab.decode(ids)
            assert str(got.value) == str(exc)
        else:
            assert vocab.decode(ids) == want

def test_round_trip_random_in_vocab_strings():
    words = ["red", "blue", "hat", "shoe", ";", ":", "4"]
    vocab = build_vocab([" ".join(words)] * 2)
    rng = random.Random(11)
    for _ in range(1000):
        text = " ".join(rng.choice(words) for _ in range(rng.randint(1, 8)))
        ids = vocab.encode(text)
        assert vocab.decode(ids) == text


def test_encode_decode_encode_idempotent():
    vocab = build_vocab(["red hat red hat"])
    for text in ("red hat", "red mystery hat", "totally unknown words"):
        once = vocab.encode(text)
        assert vocab.encode(vocab.decode(once)) == once


def test_tsv_round_trip(tmp_path):
    vocab = build_vocab(["red hat shoe red hat shoe"])
    path = tmp_path / "vocab.tsv"
    vocab.save_tsv(path)
    loaded = Vocabulary.load_tsv(path)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.content_hash() == vocab.content_hash()


def test_max_size_cap():
    texts = [" ".join(f"w{i}" for i in range(100))] * 2
    vocab = build_vocab(texts, min_freq=2, max_size=10)
    assert vocab.size == 10


def test_max_size_three_holds_only_the_specials():
    assert build_vocab(["a b c d e"] * 3, max_size=3).size == 3


@pytest.mark.parametrize("kwargs,named", [
    ({"max_size": 2}, "max_size"),
    ({"min_freq": 0}, "min_freq"),
])
def test_build_vocab_rejects_bad_limits(kwargs, named):
    with pytest.raises(ValueError, match=named):
        build_vocab(["a b c d e"] * 3, **kwargs)


def repeat_previous_token(lines: list[str], i: int) -> str:
    return f"{lines[i - 1].split(chr(9))[0]}\t{i}"


@pytest.mark.parametrize("corrupt,reason", [
    (repeat_previous_token, "already on line 4"),
    (lambda lines, i: lines[i].replace("\t", ""), "expected a token, a tab and its id"),
    (lambda lines, i: lines[i].split("\t")[0] + "\tfour", "id 'four' is not an integer"),
    (lambda lines, i: lines[i].split("\t")[0] + "\t7", "non-contiguous id 7, expected 4"),
])
def test_tsv_with_a_bad_row_names_file_and_line(tmp_path, corrupt, reason):
    path = tmp_path / "vocab.tsv"
    build_vocab(["red hat shoe red hat shoe"]).save_tsv(path)
    lines = path.read_text().splitlines()
    lines[4] = corrupt(lines, 4)  # id 4, the second word, on line 5
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as info:
        Vocabulary.load_tsv(path)
    assert str(info.value).startswith(f"{path}:5: ") and reason in str(info.value)
