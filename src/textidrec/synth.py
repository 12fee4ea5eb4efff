"""Deterministic synthetic datasets with plantable sequential patterns.

Items get short word-combination metadata (every word appears in at least
two items so a min_freq=2 vocabulary keeps them); user logs walk the catalog
cyclically, so the next item is a deterministic function of the last one.
The transfer pair builder reuses one domain's item texts under fresh keys
and users for zero-shot experiments.
"""

from __future__ import annotations

import random

from .corpus import Dataset, InteractionLog, ItemRecord

_ADJECTIVES = (
    "amber", "brisk", "coral", "dusty", "ember", "frosty", "golden", "hazel",
    "ivory", "jade", "lunar", "misty", "noble", "ochre", "pale", "quiet",
    "ruby", "silver", "teal", "umber",
)
_NOUNS = (
    "falcon", "harbor", "kettle", "lantern", "meadow", "otter", "prism",
    "quartz", "reef", "saddle", "thicket", "violin", "willow", "zephyr",
    "anchor", "beacon", "cedar", "delta", "ferry", "grove",
)
_KINDS = ("gear", "tonic", "fabric", "tool", "snack", "game")


def _catalog_texts(n_items: int) -> list[tuple[tuple[str, str], ...]]:
    """Distinct metadata for `n_items` catalog positions.

    Adjective/noun pools of size n/2 are paired Latin-square style: every
    word occurs in exactly two items (so it survives a min_freq=2 vocabulary
    cut) but no two items share more than one word.
    """
    if n_items < 4 or n_items % 2:
        raise ValueError("synthetic catalogs need an even item count >= 4")
    pool = min(n_items // 2, len(_ADJECTIVES), len(_NOUNS))
    if n_items > pool * pool:
        raise ValueError(f"word pools too small for {n_items} distinct items")
    metas = []
    for i in range(n_items):
        adj = _ADJECTIVES[i % pool]
        noun = _NOUNS[(i % pool + i // pool) % pool]
        metas.append((("name", f"{adj} {noun}"), ("kind", _KINDS[i % 2])))
    if len(set(metas)) != n_items:
        raise ValueError(f"word pools too small for {n_items} distinct items")
    return metas


def _cyclic_logs(user_prefix: str, n_users: int, n_items: int, rng: random.Random,
                 min_len: int, max_len: int,
                 item_key_of_index) -> tuple[InteractionLog, ...]:
    """Walks of random length; start positions rotate round-robin so every
    transition gets even coverage across users."""
    if n_users < 1:
        raise ValueError(f"a synthetic dataset needs at least 1 user, got {n_users}")
    logs = []
    for u in range(n_users):
        length = rng.randint(min_len, max_len)
        start = u % n_items
        items = tuple(item_key_of_index((start + t) % n_items) for t in range(length))
        logs.append(InteractionLog(user=f"{user_prefix}{u:03d}", items=items))
    return tuple(logs)


def cyclic_dataset(name: str = "toy", n_users: int = 50, n_items: int = 10,
                   seed: int = 7, min_len: int = 6, max_len: int = 8) -> Dataset:
    """Catalog walked cyclically: the successor of item i is item (i+1) mod n."""
    rng = random.Random(seed)
    metas = _catalog_texts(n_items)
    keys = [f"{name}_item_{i:03d}" for i in range(n_items)]
    items = {key: ItemRecord(key=key, metadata=meta) for key, meta in zip(keys, metas)}
    logs = _cyclic_logs(f"{name}_user_", n_users, n_items, rng, min_len, max_len,
                        lambda i: keys[i])
    return Dataset(name=name, items=items, logs=logs)


def transfer_pair(n_items: int = 16, n_users_a: int = 48, n_users_b: int = 40,
                  seed: int = 11, min_len: int = 6, max_len: int = 8) -> tuple[Dataset, Dataset]:
    """Two domains for the zero-shot protocol.

    Domain B's items carry domain A's metadata texts in the same catalog
    order but under fresh item keys, and disjoint users walk the cycle with
    their own lengths and phases. Transfer works only through the text -> ID
    path: IDs for B are re-derived from scratch by the frozen generator,
    never copied.
    """
    domain_a = cyclic_dataset(name="domain_a", n_users=n_users_a, n_items=n_items,
                              seed=seed, min_len=min_len, max_len=max_len)
    rng = random.Random(seed + 1)
    metas = _catalog_texts(n_items)
    keys_b = [f"domain_b_item_{j:03d}" for j in range(n_items)]
    items_b = {keys_b[j]: ItemRecord(key=keys_b[j], metadata=metas[j]) for j in range(n_items)}
    logs_b = _cyclic_logs("domain_b_user_", n_users_b, n_items, rng, min_len, max_len,
                          lambda i: keys_b[i])
    return domain_a, Dataset(name="domain_b", items=items_b, logs=logs_b)


def duplicated_metadata_items(n_items: int = 1000, n_distinct: int = 100) -> list[tuple[str, str]]:
    """(key, flattened text) pairs where only `n_distinct` texts exist, for
    stressing uniqueness escalation."""
    from .corpus import flatten_metadata

    metas = _catalog_texts(n_distinct)
    texts = [flatten_metadata(ItemRecord(key="x", metadata=m)) for m in metas]
    return [(f"dup_item_{j:04d}", texts[j % n_distinct]) for j in range(n_items)]
