"""Dataset ingestion: metadata flattening, k-core filtering, leave-one-out
splitting, and fusion-corpus construction.

All operations are pure functions over immutable inputs; file formats are
JSON-lines (`items.jsonl`, `interactions.jsonl`) plus derived split files.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence


class DataFormatError(ValueError):
    """An input file is malformed or references unknown keys."""


class EmptyAfterFiltering(ValueError):
    """k-core filtering removed every user."""


class HistoryTooShort(ValueError):
    """A log is too short to split into train/valid/test."""


@dataclass(frozen=True)
class ItemRecord:
    """An item's opaque key plus its ordered metadata pairs."""

    key: str
    metadata: tuple[tuple[str, str], ...]


@dataclass(frozen=True)
class InteractionLog:
    """One user's chronologically ordered item interactions."""

    user: str
    items: tuple[str, ...]
    timestamps: tuple[int, ...] | None = None


@dataclass(frozen=True)
class Dataset:
    name: str
    items: dict[str, ItemRecord]
    logs: tuple[InteractionLog, ...]

    def validate(self) -> None:
        for log in self.logs:
            for key in log.items:
                if not isinstance(key, str) or key not in self.items:
                    raise DataFormatError(f"log for user {log.user!r} references unknown item {key!r}")


@dataclass(frozen=True)
class EvalPair:
    """A held-out (history, target) pair for one user."""

    user: str
    history: tuple[str, ...]
    target: str


@dataclass(frozen=True)
class SplitDataset:
    """Leave-one-out split: last item is the test target, second-to-last the
    validation target, the remainder the train log."""

    name: str
    items: dict[str, ItemRecord]
    train: tuple[InteractionLog, ...]
    valid: tuple[EvalPair, ...]
    test: tuple[EvalPair, ...]

    def validate(self) -> None:
        refs = [("train", log.user, log.items) for log in self.train]
        refs += [(which, pair.user, pair.history + (pair.target,))
                 for which in ("valid", "test") for pair in getattr(self, which)]
        for which, user, keys in refs:
            for key in keys:
                if not isinstance(key, str) or key not in self.items:
                    raise DataFormatError(f"{which} entry for user {user!r} references unknown item {key!r}")


@dataclass(frozen=True)
class FusionSpec:
    sources: tuple[Dataset, ...]
    user_cap: int = 30000
    seed: int = 0


def render_value(value) -> str:
    """Render a metadata value as text: lists join with ', ', numbers use
    their minimal decimal representation (4.0 -> '4.0')."""
    if isinstance(value, str):
        return value
    if isinstance(value, (list, tuple)):
        return ", ".join(render_value(v) for v in value)
    if isinstance(value, bool):
        return str(value).lower()
    return str(value)


def flatten_metadata(item: ItemRecord) -> str:
    """Serialize metadata pairs as 'k1: v1; k2: v2; ...' in input order."""
    return "; ".join(f"{k}: {v}" for k, v in item.metadata)


def filter_k_core(dataset: Dataset, k: int = 5) -> Dataset:
    """Iteratively remove users and items with fewer than `k` interactions
    until both thresholds hold simultaneously."""
    if k < 1:
        raise ValueError("k must be >= 1")
    logs = {log.user: log for log in dataset.logs}
    while True:
        changed = False
        # users below threshold
        for user in [u for u, log in logs.items() if len(log.items) < k]:
            del logs[user]
            changed = True
        # items below threshold, removed from every log
        item_counts: Counter[str] = Counter()
        for log in logs.values():
            item_counts.update(log.items)
        weak = {key for key in item_counts if item_counts[key] < k}
        if weak:
            changed = True
            for user, log in list(logs.items()):
                kept = [
                    (it, None if log.timestamps is None else log.timestamps[i])
                    for i, it in enumerate(log.items)
                    if it not in weak
                ]
                items = tuple(it for it, _ in kept)
                ts = None if log.timestamps is None else tuple(t for _, t in kept)
                logs[user] = InteractionLog(user=user, items=items, timestamps=ts)
        if not changed:
            break
    if not logs:
        raise EmptyAfterFiltering(f"no users left in {dataset.name!r} after {k}-core filtering")
    referenced = {key for log in logs.values() for key in log.items}
    items = {key: rec for key, rec in dataset.items.items() if key in referenced}
    return Dataset(name=dataset.name, items=items, logs=tuple(logs.values()))


def leave_one_out_split(dataset: Dataset) -> SplitDataset:
    """Split each log: last item -> test target, second-to-last -> validation
    target, remainder -> train history."""
    train, valid, test = [], [], []
    for log in dataset.logs:
        if len(log.items) < 3:
            raise HistoryTooShort(
                f"user {log.user!r} has only {len(log.items)} interactions; need >= 3"
            )
        head = log.items[:-2]
        ts = None if log.timestamps is None else log.timestamps[: len(head)]
        train.append(InteractionLog(user=log.user, items=head, timestamps=ts))
        valid.append(EvalPair(user=log.user, history=head, target=log.items[-2]))
        test.append(EvalPair(user=log.user, history=log.items[:-1], target=log.items[-1]))
    return SplitDataset(
        name=dataset.name,
        items=dict(dataset.items),
        train=tuple(train),
        valid=tuple(valid),
        test=tuple(test),
    )


def build_fusion(spec: FusionSpec) -> Dataset:
    """Union the sources, downsampling each to at most `user_cap` users.

    Item and user keys are namespaced '<dataset>/<key>' to prevent
    cross-source collisions; flattened text is untouched.
    """
    if spec.user_cap <= 0:
        raise ValueError("user_cap must be positive")
    rng = random.Random(spec.seed)
    items: dict[str, ItemRecord] = {}
    logs: list[InteractionLog] = []
    for source in spec.sources:
        source_logs = list(source.logs)
        if len(source_logs) > spec.user_cap:
            picked = sorted(rng.sample(range(len(source_logs)), spec.user_cap))
            source_logs = [source_logs[i] for i in picked]
        used: set[str] = set()
        for log in source_logs:
            namespaced = tuple(f"{source.name}/{key}" for key in log.items)
            logs.append(
                InteractionLog(
                    user=f"{source.name}/{log.user}",
                    items=namespaced,
                    timestamps=log.timestamps,
                )
            )
            used.update(log.items)
        for key in used:
            rec = source.items[key]
            items[f"{source.name}/{key}"] = ItemRecord(key=f"{source.name}/{key}", metadata=rec.metadata)
    return Dataset(name="fusion", items=items, logs=tuple(logs))


# -- file formats -------------------------------------------------------------


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise DataFormatError(f"{path}:{n}: invalid JSON ({exc})") from exc
    return rows


def _read_items(path: Path) -> dict[str, ItemRecord]:
    """The catalog in `items.jsonl`: one string `item` key and one
    `metadata` object per row, keys unique."""
    items: dict[str, ItemRecord] = {}
    for row in _read_jsonl(path):
        key = row.get("item") if isinstance(row, dict) else None
        if not key or not isinstance(key, str):
            raise DataFormatError(f"{path}: row without string 'item' field: {row!r}")
        if key in items:
            raise DataFormatError(f"{path}: duplicate item key {key!r}")
        meta = row.get("metadata")
        if not isinstance(meta, dict):
            raise DataFormatError(f"{path}: item {key!r} has no 'metadata' object")
        items[key] = ItemRecord(key=key, metadata=tuple((k, render_value(v)) for k, v in meta.items()))
    return items


def load_dataset(directory: str | Path, name: str | None = None) -> Dataset:
    """Load `items.jsonl` + `interactions.jsonl` from a directory.

    Metadata field order in the file defines flattening order; logs without
    timestamps keep file order as chronology. An interactions row needs a
    non-empty string `user`, a non-empty `items` list and, if it has them,
    `timestamps` as a list of integers, one per item: anything else is a
    DataFormatError naming the file.
    """
    directory = Path(directory)
    items_path = directory / "items.jsonl"
    inter_path = directory / "interactions.jsonl"
    for p in (items_path, inter_path):
        if not p.exists():
            raise FileNotFoundError(f"missing input file: {p}")
    items = _read_items(items_path)
    logs = []
    for row in _read_jsonl(inter_path):
        user, seq = (row.get("user"), row.get("items")) if isinstance(row, dict) else (None, None)
        if not user or not isinstance(user, str) or not isinstance(seq, list) or not seq:
            raise DataFormatError(f"{inter_path}: row needs a string 'user' and non-empty 'items': {row!r}")
        ts = row.get("timestamps")
        if ts is not None:
            if not (isinstance(ts, list) and len(ts) == len(seq) and all(type(t) is int for t in ts)):
                raise DataFormatError(f"{inter_path}: user {user!r} needs 'timestamps' as a list of "
                                      f"{len(seq)} integers, one per item: {ts!r}")
            order = sorted(range(len(seq)), key=lambda i: (ts[i], i))
            seq = [seq[i] for i in order]
            ts = tuple(ts[i] for i in order)
        logs.append(InteractionLog(user=user, items=tuple(seq), timestamps=ts))
    dataset = Dataset(name=name or directory.name, items=items, logs=tuple(logs))
    dataset.validate()
    return dataset


def _save_items(items: dict[str, ItemRecord], directory: str | Path) -> Path:
    """Create `directory` and write its items.jsonl; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with (directory / "items.jsonl").open("w", encoding="utf-8") as fh:
        for rec in items.values():
            fh.write(json.dumps({"item": rec.key, "metadata": dict(rec.metadata)}) + "\n")
    return directory


def save_dataset(dataset: Dataset, directory: str | Path) -> None:
    directory = _save_items(dataset.items, directory)
    with (directory / "interactions.jsonl").open("w", encoding="utf-8") as fh:
        for log in dataset.logs:
            row = {"user": log.user, "items": list(log.items)}
            if log.timestamps is not None:
                row["timestamps"] = list(log.timestamps)
            fh.write(json.dumps(row) + "\n")


def save_split(split: SplitDataset, directory: str | Path) -> None:
    directory = _save_items(split.items, directory)
    with (directory / "train.jsonl").open("w", encoding="utf-8") as fh:
        for log in split.train:
            fh.write(json.dumps({"user": log.user, "items": list(log.items)}) + "\n")
    for field_name in ("valid", "test"):
        with (directory / f"{field_name}.jsonl").open("w", encoding="utf-8") as fh:
            for pair in getattr(split, field_name):
                fh.write(
                    json.dumps({"user": pair.user, "history": list(pair.history), "target": pair.target})
                    + "\n"
                )
    (directory / "dataset.json").write_text(json.dumps({"name": split.name}) + "\n", encoding="utf-8")


_SPLIT_FIELD_TYPES = {"user": str, "items": list, "history": list, "target": str}


def _split_rows(path: Path, *fields: str) -> list[dict]:
    """The rows of a split file: JSON objects with `user` and each of
    `fields`, all non-empty (`user` and `target` strings, `items` and
    `history` lists)."""
    rows = _read_jsonl(path)
    fields = ("user", *fields)
    for row in rows:
        if not (isinstance(row, dict) and all(isinstance(row.get(f), _SPLIT_FIELD_TYPES[f]) and row[f]
                                              for f in fields)):
            wanted = ", ".join(f"{f!r} ({_SPLIT_FIELD_TYPES[f].__name__})" for f in fields)
            raise DataFormatError(f"{path}: row needs non-empty {wanted}: {row!r}")
    return rows


def _split_name(path: Path) -> str:
    """The name in a split's `dataset.json`: an object with a string `name`."""
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict) or not isinstance(meta.get("name"), str):
        raise DataFormatError(f"{path}: expected an object with a string 'name', got {meta!r}")
    return meta["name"]


def load_split(directory: str | Path) -> SplitDataset:
    """The split in `directory`: its items, `train.jsonl` logs and
    `valid.jsonl` and `test.jsonl` pairs (`_split_rows`), each item key
    checked against the items. A pair's user need not have a train log:
    evaluation ranks a pair from its own history, as zero-shot evaluation
    ranks users that no model has seen."""
    directory = Path(directory)
    for fname in ("items.jsonl", "train.jsonl", "valid.jsonl", "test.jsonl"):
        if not (directory / fname).exists():
            raise FileNotFoundError(f"missing input file: {directory / fname}")
    items = _read_items(directory / "items.jsonl")
    train = tuple(
        InteractionLog(user=row["user"], items=tuple(row["items"]))
        for row in _split_rows(directory / "train.jsonl", "items")
    )
    pairs = {}
    for fname in ("valid", "test"):
        pairs[fname] = tuple(
            EvalPair(user=row["user"], history=tuple(row["history"]), target=row["target"])
            for row in _split_rows(directory / f"{fname}.jsonl", "history", "target")
        )
    meta_path = directory / "dataset.json"
    name = _split_name(meta_path) if meta_path.exists() else directory.name
    split = SplitDataset(name=name, items=items, train=train, valid=pairs["valid"], test=pairs["test"])
    split.validate()
    return split


def item_texts(items: dict[str, ItemRecord] | Iterable[ItemRecord]) -> list[tuple[str, str]]:
    """(key, flattened text) pairs in catalog order."""
    records: Sequence[ItemRecord] = list(items.values()) if isinstance(items, dict) else list(items)
    return [(rec.key, flatten_metadata(rec)) for rec in records]
