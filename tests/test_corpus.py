import json
import random
from collections import Counter

import pytest

from textidrec.corpus import (Dataset, DataFormatError, EmptyAfterFiltering, FusionSpec,
                              HistoryTooShort, InteractionLog, ItemRecord, build_fusion,
                              filter_k_core, flatten_metadata, leave_one_out_split,
                              load_dataset, load_split, render_value, save_dataset,
                              save_split)


def make_dataset(logs: dict[str, list[str]], name: str = "toy") -> Dataset:
    keys = sorted({k for items in logs.values() for k in items})
    items = {k: ItemRecord(key=k, metadata=(("name", k),)) for k in keys}
    entries = tuple(InteractionLog(user=u, items=tuple(seq)) for u, seq in logs.items())
    return Dataset(name=name, items=items, logs=entries)


def test_flatten_matches_review_site_example():
    item = ItemRecord(key="z", metadata=(
        ("name", "zeppelin"),
        ("categories", "cocktail bars, restaurants"),
        ("stars", render_value(4.0)),
    ))
    assert flatten_metadata(item) == "name: zeppelin; categories: cocktail bars, restaurants; stars: 4.0"


def test_flatten_empty_and_single():
    assert flatten_metadata(ItemRecord(key="x", metadata=())) == ""
    assert flatten_metadata(ItemRecord(key="x", metadata=(("title", "Lego Set"),))) == "title: Lego Set"


def test_render_value_lists_and_numbers():
    assert render_value(["cocktail bars", "restaurants"]) == "cocktail bars, restaurants"
    assert render_value(4.0) == "4.0"
    assert render_value(7) == "7"


def test_k_core_keeps_already_core_dataset():
    logs = {f"u{i}": [f"i{j}" for j in range(5)] for i in range(5)}
    ds = make_dataset(logs)
    out = filter_k_core(ds, k=5)
    assert {l.user for l in out.logs} == set(logs)
    assert all(len(l.items) == 5 for l in out.logs)


def test_k_core_empty_after_filtering():
    ds = make_dataset({"u0": ["a", "b", "c"]})
    with pytest.raises(EmptyAfterFiltering):
        filter_k_core(ds, k=5)


def _brute_force_k_core(logs: dict[str, list[str]], k: int) -> dict[str, list[str]]:
    logs = {u: list(seq) for u, seq in logs.items()}
    while True:
        users = {u for u, seq in logs.items() if len(seq) >= k}
        counts = Counter(it for u in users for it in logs[u])
        items = {it for it, c in counts.items() if c >= k}
        new_logs = {u: [it for it in logs[u] if it in items] for u in users}
        new_logs = {u: seq for u, seq in new_logs.items() if seq}
        if new_logs == logs:
            return logs
        logs = new_logs


def test_k_core_chain_case_matches_brute_force():
    # removing a weak item drops one user below threshold, cascading
    logs = {
        "u0": ["a", "b", "c"],
        "u1": ["a", "b", "c"],
        "u2": ["a", "b", "d"],
        "u3": ["a", "b", "d"],
        "u4": ["a", "c", "d"],
        "u5": ["e", "f"],
    }
    ds = make_dataset(logs)
    out = filter_k_core(ds, k=3)
    expected = _brute_force_k_core(logs, k=3)
    assert {l.user: list(l.items) for l in out.logs} == expected


def test_k_core_is_fixed_point():
    logs = {f"u{i}": [f"i{(i + j) % 6}" for j in range(6)] for i in range(8)}
    once = filter_k_core(make_dataset(logs), k=4)
    twice = filter_k_core(once, k=4)
    assert {l.user: l.items for l in twice.logs} == {l.user: l.items for l in once.logs}
    assert set(twice.items) == set(once.items)


def test_split_definitional_example():
    ds = make_dataset({"u": ["a", "b", "c", "d"]})
    split = leave_one_out_split(ds)
    assert split.train[0].items == ("a", "b")
    assert split.valid[0].history == ("a", "b") and split.valid[0].target == "c"
    assert split.test[0].history == ("a", "b", "c") and split.test[0].target == "d"


def test_split_rejects_short_logs():
    with pytest.raises(HistoryTooShort):
        leave_one_out_split(make_dataset({"u": ["a", "b"]}))


def test_split_reconstruction_property():
    rng = random.Random(5)
    logs = {
        f"u{i}": [f"i{rng.randrange(30)}" for _ in range(rng.randint(3, 12))]
        for i in range(100)
    }
    split = leave_one_out_split(make_dataset(logs))
    by_user = {l.user: l for l in split.train}
    valid = {p.user: p for p in split.valid}
    test = {p.user: p for p in split.test}
    for user, seq in logs.items():
        rebuilt = list(by_user[user].items) + [valid[user].target, test[user].target]
        assert rebuilt == seq


def test_split_no_target_leakage():
    ds = make_dataset({"u": ["a", "b", "c", "d"]})
    split = leave_one_out_split(ds)
    assert split.test[0].target not in split.train[0].items
    assert split.test[0].target not in split.valid[0].history


def test_fusion_under_cap_keeps_everyone():
    ds = make_dataset({f"u{i}": ["a", "b", "c"] for i in range(10)})
    fused = build_fusion(FusionSpec(sources=(ds,), user_cap=30000, seed=0))
    assert len(fused.logs) == 10
    assert all(key.startswith("toy/") for key in fused.items)


def test_fusion_downsamples_to_cap():
    items = {"a": ItemRecord(key="a", metadata=(("name", "a"),))}
    logs = tuple(InteractionLog(user=f"u{i}", items=("a",)) for i in range(40000))
    big = Dataset(name="big", items=items, logs=logs)
    fused = build_fusion(FusionSpec(sources=(big,), user_cap=30000, seed=1))
    assert len(fused.logs) == 30000


def test_fusion_seed_reproducible_and_namespaced():
    sources = tuple(
        make_dataset({f"u{i}": ["a", "b"] for i in range(5)}, name=name)
        for name in ("alpha", "beta")
    )
    one = build_fusion(FusionSpec(sources=sources, user_cap=3, seed=9))
    two = build_fusion(FusionSpec(sources=sources, user_cap=3, seed=9))
    assert [l.user for l in one.logs] == [l.user for l in two.logs]
    assert set(one.items) == {"alpha/a", "alpha/b", "beta/a", "beta/b"}
    # the flattened text stays un-namespaced
    assert all(rec.metadata == (("name", rec.key.split("/")[1]),) for rec in one.items.values())
    assert {l.user.split("/")[0] for l in one.logs} == {"alpha", "beta"}


def test_dataset_jsonl_round_trip(tmp_path):
    ds = make_dataset({"u0": ["a", "b", "c"], "u1": ["b", "c", "a"]})
    save_dataset(ds, tmp_path)
    loaded = load_dataset(tmp_path, name="toy")
    assert {l.user: l.items for l in loaded.logs} == {l.user: l.items for l in ds.logs}
    assert set(loaded.items) == set(ds.items)


def test_load_dataset_sorts_by_timestamp(tmp_path):
    (tmp_path / "items.jsonl").write_text(
        "\n".join(json.dumps({"item": k, "metadata": {"name": k}}) for k in "abc") + "\n"
    )
    (tmp_path / "interactions.jsonl").write_text(
        json.dumps({"user": "u", "items": ["a", "b", "c"], "timestamps": [30, 10, 20]}) + "\n"
    )
    ds = load_dataset(tmp_path)
    assert ds.logs[0].items == ("b", "c", "a")


def test_load_dataset_rejects_unknown_item(tmp_path):
    (tmp_path / "items.jsonl").write_text(json.dumps({"item": "a", "metadata": {}}) + "\n")
    (tmp_path / "interactions.jsonl").write_text(json.dumps({"user": "u", "items": ["zzz"]}) + "\n")
    with pytest.raises(DataFormatError):
        load_dataset(tmp_path)


@pytest.mark.parametrize("fname,field", [("train", "items"), ("valid", "history"),
                                         ("test", "target")])
def test_load_split_rejects_unknown_references(tmp_path, fname, field):
    save_split(leave_one_out_split(make_dataset({"u0": ["a", "b", "c", "d"]})), tmp_path)
    path = tmp_path / f"{fname}.jsonl"
    row = json.loads(path.read_text())
    row[field] = "zzz" if field == "target" else ["zzz"]
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DataFormatError, match="zzz"):
        load_split(tmp_path)


@pytest.mark.parametrize("fname,field", [("train", "user"), ("train", "items"),
                                         ("valid", "user"), ("valid", "history"),
                                         ("test", "target")])
def test_load_split_rejects_rows_missing_a_field(tmp_path, fname, field):
    save_split(leave_one_out_split(make_dataset({"u0": ["a", "b", "c", "d"]})), tmp_path)
    path = tmp_path / f"{fname}.jsonl"
    row = json.loads(path.read_text())
    del row[field]
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DataFormatError, match=f"{fname}.jsonl: row needs .*'{field}'"):
        load_split(tmp_path)


@pytest.mark.parametrize("fname,field", [("train", "items"), ("valid", "history")])
def test_load_split_rejects_non_string_references(tmp_path, fname, field):
    save_split(leave_one_out_split(make_dataset({"u0": ["a", "b", "c", "d"]})), tmp_path)
    path = tmp_path / f"{fname}.jsonl"
    row = json.loads(path.read_text())
    row[field] = [["a"]]
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(DataFormatError, match="unknown item"):
        load_split(tmp_path)


def test_load_dataset_rejects_non_string_item_references(tmp_path):
    (tmp_path / "items.jsonl").write_text(json.dumps({"item": "a", "metadata": {}}) + "\n")
    (tmp_path / "interactions.jsonl").write_text(json.dumps({"user": "u", "items": [["a"]]}) + "\n")
    with pytest.raises(DataFormatError, match="unknown item"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("line", ['["u", "a"]', '"u"', "7", "null"])
def test_load_dataset_rejects_non_object_rows(tmp_path, line):
    (tmp_path / "items.jsonl").write_text(json.dumps({"item": "a", "metadata": {}}) + "\n")
    (tmp_path / "interactions.jsonl").write_text(line + "\n")
    with pytest.raises(DataFormatError, match="interactions.jsonl"):
        load_dataset(tmp_path)


def test_split_files_round_trip(tmp_path):
    ds = make_dataset({"u0": ["a", "b", "c", "d"], "u1": ["b", "a", "d", "c"]})
    split = leave_one_out_split(ds)
    save_split(split, tmp_path)
    loaded = load_split(tmp_path)
    assert loaded.test == split.test
    assert loaded.valid == split.valid
    assert tuple(l.items for l in loaded.train) == tuple(l.items for l in split.train)
    assert set(loaded.items) == set(split.items)
