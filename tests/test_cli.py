import dataclasses
import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import textidrec
from textidrec import corpus, evaluation
from textidrec.allocator import AllocatorConfig, allocate_all
from textidrec.cli import _config, _vocab_corpus, main
from textidrec.corpus import DataFormatError
from textidrec.model import AdamState, ModelConfig, SequenceModel
from textidrec.prompting import default_bank
from textidrec.tokenizer import build_vocab
from textidrec.training import CheckpointBundle, TrainConfig

TINY_CONFIG = {
    "train": {"iterations": 1, "rec_epochs_per_iter": 2, "idgen_epochs_per_iter": 1},
    "model": {"d_model": 16, "layers": 1, "heads": 2, "ff_dim": 32,
              "max_src_len": 128, "max_tgt_len": 12},
    "allocator": {"groups": 4},
}


def write_config(tmp_path: Path) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def untrained_bundle(tmp_path: Path) -> tuple[Path, Path]:
    """An ingested synthetic split and a saved bundle of untrained models
    whose registry comes from the bundled generator."""
    raw, split_dir, final = tmp_path / "raw", tmp_path / "split", tmp_path / "final"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split_dir, "--k", 3) == 0
    split = corpus.load_split(split_dir)
    vocab = build_vocab(_vocab_corpus(split.items, default_bank()))
    sizes = dict(TINY_CONFIG["model"], vocab_size=vocab.size)
    rec, idgen = (SequenceModel.init(ModelConfig(seed=seed, **sizes)) for seed in (1, 2))
    registry = allocate_all(idgen, corpus.item_texts(split.items), vocab, AllocatorConfig(groups=4))
    CheckpointBundle(rec=rec, rec_opt=AdamState(), idgen=idgen, idgen_opt=AdamState(),
                     registry=registry, vocab_hash=vocab.content_hash()).save(final, vocab=vocab)
    return split_dir, final


def one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    return err


def test_synth_and_ingest_idempotent(tmp_path):
    raw, split = tmp_path / "raw", tmp_path / "split"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    first = {p.name: p.read_bytes() for p in split.iterdir()}
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    second = {p.name: p.read_bytes() for p in split.iterdir()}
    assert first == second
    for fname in ("items.jsonl", "train.jsonl", "valid.jsonl", "test.jsonl"):
        assert fname in first


def test_ingest_missing_input_exits_2(tmp_path, capsys):
    code = run("ingest", "--data", tmp_path / "nowhere", "--out", tmp_path / "out")
    assert code == 2
    assert "items.jsonl" in capsys.readouterr().err


def test_ingest_non_object_interaction_row_exits_2(tmp_path, capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    with (raw / "interactions.jsonl").open("a") as fh:
        fh.write('["u", "a"]\n')
    capsys.readouterr()
    assert run("ingest", "--data", raw, "--out", tmp_path / "split", "--k", 3) == 2
    assert "interactions.jsonl" in one_line_error(capsys)


@pytest.mark.parametrize("fields", [
    # each exited 4: unhashable user, len() of an int, a sort comparing None
    # or a string with numbers
    {"user": {"id": 1}},
    {"timestamps": 5},
    {"timestamps": [1, None]},
    {"timestamps": [1.5, "2"]},
    # exited 2 without naming the file
    {"timestamps": "ab"},
    # read as six per-character timestamps, reordering the user's items
    {"items": [f"toy_item_00{i}" for i in range(6)], "timestamps": "210012"},
], ids=["object-user", "int-timestamps", "null-timestamp", "float-and-string-timestamps", "string-timestamps",
        "digit-string-timestamps"])
def test_ingest_bad_interaction_fields_exit_2_naming_the_file(tmp_path, capsys, fields):
    raw = tmp_path / "raw"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    with (raw / "interactions.jsonl").open("a") as fh:
        fh.write(json.dumps({"user": "u", "items": ["toy_item_000", "toy_item_001"], **fields}) + "\n")
    capsys.readouterr()
    assert run("ingest", "--data", raw, "--out", tmp_path / "split", "--k", 3) == 2
    assert "interactions.jsonl" in one_line_error(capsys)


def test_fuse_respects_cap_and_namespaces(tmp_path):
    for name in ("alpha", "beta"):
        assert run("synth", "--out", tmp_path / name, "--name", name,
                   "--users", 8, "--items", 6, "--seed", 5) == 0
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "sources": [str(tmp_path / "alpha"), str(tmp_path / "beta")],
        "user_cap": 5, "seed": 1, "k": 3,
    }))
    assert run("fuse", "--manifest", manifest, "--out", tmp_path / "fused") == 0
    rows = [json.loads(line) for line in (tmp_path / "fused" / "interactions.jsonl").read_text().splitlines()]
    assert len(rows) == 10  # 5 per source
    per_source = {r["user"].split("/")[0] for r in rows}
    assert per_source == {"alpha", "beta"}
    items = [json.loads(line)["item"] for line in (tmp_path / "fused" / "items.jsonl").read_text().splitlines()]
    assert all(key.startswith(("alpha/", "beta/")) for key in items)


def test_train_eval_zeroshot_pipeline(tmp_path):
    raw, split, run_dir = tmp_path / "raw", tmp_path / "split", tmp_path / "run"
    cfg = write_config(tmp_path)
    assert run("synth", "--out", raw, "--users", 12, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    assert run("train", "--data", split, "--out", run_dir, "--seed", 5, "--config", cfg) == 0
    final = run_dir / "final"
    for fname in ("rec.ckpt", "idgen.ckpt", "ids.tsv", "vocab.tsv"):
        assert (final / fname).exists()
    assert (run_dir / "iter_1" / "metrics.json").exists()

    metrics = tmp_path / "metrics.json"
    assert run("eval", "--bundle", final, "--data", split, "--out", metrics) == 0
    payload = json.loads(metrics.read_text())
    assert 0.0 <= payload["hr@5"] <= payload["hr@10"] <= 1.0
    assert len(payload["ranks"]) == payload["users"]

    zs_raw = tmp_path / "zs_raw"
    assert run("synth", "--out", zs_raw, "--users", 10, "--items", 6, "--seed", 9) == 0
    zs_metrics = tmp_path / "zs_metrics.json"
    assert run("zeroshot", "--bundle", final, "--data", zs_raw, "--out", zs_metrics,
               "--k", 3, "--config", cfg) == 0
    assert json.loads(zs_metrics.read_text())["mode"] == "zero-shot"


def test_eval_with_mismatched_vocab_exits_3(tmp_path, capsys):
    raw, split, run_dir = tmp_path / "raw", tmp_path / "split", tmp_path / "run"
    cfg = write_config(tmp_path)
    assert run("synth", "--out", raw, "--users", 12, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    assert run("train", "--data", split, "--out", run_dir, "--seed", 5, "--config", cfg) == 0
    # swap in a foreign vocabulary: the checkpoint hash no longer matches
    build_vocab(["foreign words only here"], min_freq=1).save_tsv(run_dir / "final" / "vocab.tsv")
    code = run("eval", "--bundle", run_dir / "final", "--data", split,
               "--out", tmp_path / "m.json")
    assert code == 3
    assert "vocabulary" in capsys.readouterr().err.lower()


@pytest.mark.parametrize("manifest,reason", [
    ('{}', "'sources'"),
    ('[1]', "object"),
    ('{"sources": "nope"}', "'sources'"),
    ('{"sources": []}', "'sources'"),
    ('{"sources": ["alpha", 3]}', "'sources'"),
    ('{"sources": ["alpha"], "k": "3"}', "'k'"),
    ('{"sources": ["alpha"], "user_cap": 2.5}', "'user_cap'"),
    ('{"sources": ["alpha"], "seed": true}', "'seed'"),
    ('{"sources": [', "invalid JSON"),
], ids=["empty_object", "list", "string_sources", "no_sources", "non_string_source",
        "string_k", "float_user_cap", "bool_seed", "truncated"])
def test_fuse_with_bad_manifest_exits_2(tmp_path, capsys, manifest, reason):
    path = tmp_path / "manifest.json"
    path.write_text(manifest)
    capsys.readouterr()
    assert run("fuse", "--manifest", path, "--out", tmp_path / "fused") == 2
    err = one_line_error(capsys)
    assert str(path) in err and reason in err
    assert not (tmp_path / "fused").exists()


def test_train_with_bad_template_bank_exits_2_naming_the_line(tmp_path, capsys):
    raw, split = tmp_path / "raw", tmp_path / "split"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    bank = tmp_path / "templates.txt"
    bank.write_text("".join(f"{t.id}\t{t.text}\n" for t in default_bank()).replace("\t", " ", 1))
    capsys.readouterr()
    assert run("train", "--data", split, "--out", tmp_path / "r", "--templates", bank) == 2
    assert one_line_error(capsys).startswith(f"error: {bank}:1: expected id<TAB>text")


def test_allocate_from_fresh_model(tmp_path):
    raw = tmp_path / "raw"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 4) == 0
    cfg = write_config(tmp_path)
    out = tmp_path / "ids.tsv"
    assert run("allocate", "--data", raw, "--out", out, "--seed", 2, "--config", cfg) == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 6
    texts = [l.split("\t")[1] for l in lines]
    assert len(set(texts)) == 6


def test_allocate_with_an_infinite_penalty_cap_exits_2(tmp_path, capsys):
    # JSON's Infinity parses to a float; an endless escalation ladder must be
    # refused before allocation starts
    raw = tmp_path / "raw"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 4) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text('{"allocator": {"lam_max": Infinity}}')
    capsys.readouterr()
    assert run("allocate", "--data", raw, "--out", tmp_path / "ids.tsv", "--config", cfg) == 2
    assert "config section 'allocator': " in one_line_error(capsys)
    assert not (tmp_path / "ids.tsv").exists()


def _capped_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def run_capped(*argv, timeout: float = 120) -> subprocess.CompletedProcess:
    """The CLI with `argv`, in a subprocess under a memory cap and a
    timeout, so a loop that does not end or a run that eats memory fails the
    test instead of the machine."""
    env = dict(os.environ, PYTHONPATH=str(Path(textidrec.__file__).resolve().parents[1]), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "textidrec", *map(str, argv)], capture_output=True, text=True,
                          timeout=timeout, env=env, preexec_fn=_capped_memory)


def allocate_capped(tmp_path: Path, config: dict, raw: Path | None = None) -> subprocess.CompletedProcess:
    """`allocate` on the raw dataset `raw` (by default a small synth set)
    with `config`, under `run_capped`."""
    if raw is None:
        raw = tmp_path / "raw"
        assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 4) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    return run_capped("allocate", "--data", raw, "--out", tmp_path / "ids.tsv", "--config", cfg)


@pytest.mark.parametrize("max_size", [3, 4])
def test_allocate_with_under_two_usable_tokens_exits_2(tmp_path, max_size):
    # one usable token made the ordinal fallback count in base 1 without end,
    # and none exited 4
    done = allocate_capped(tmp_path, {**TINY_CONFIG, "vocab": {"max_size": max_size}})
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1 and "config section 'vocab': " in done.stderr
    assert not (tmp_path / "ids.tsv").exists()


def test_allocate_with_too_short_ids_for_the_catalog_exits_2(tmp_path):
    # 300 items share 3 texts, and max_tgt_len 2 leaves one token per ID: the
    # ordinal fallback runs out of one-token IDs, which used to exit 4 as an
    # internal error
    raw = tmp_path / "raw"
    raw.mkdir()
    texts = ["red hat", "blue shoe", "green sock"]
    (raw / "items.jsonl").write_text("".join(
        json.dumps({"item": f"i{j}", "metadata": {"title": texts[j % 3]}}) + "\n" for j in range(300)))
    (raw / "interactions.jsonl").write_text(json.dumps({"user": "u0", "items": ["i0", "i1", "i2"]}) + "\n")
    done = allocate_capped(tmp_path, {"model": {"max_tgt_len": 2}, "vocab": {"min_freq": 1}}, raw)
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: config section 'model': ")
    assert "max_tgt_len" in done.stderr
    assert not (tmp_path / "ids.tsv").exists()


def test_running_out_of_memory_exits_2_with_one_line(tmp_path):
    # a generator of 24 (4096, 4096) matrices does not fit under the cap: it
    # used to exit 4 with a traceback
    done = allocate_capped(tmp_path, {**TINY_CONFIG, "model": {"d_model": 4096, "heads": 1}})
    assert done.returncode == 2, done.stderr
    assert len(done.stderr.splitlines()) == 1 and done.stderr.startswith("error: out of memory")
    assert not (tmp_path / "ids.tsv").exists()


def test_key_value_config_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "train.iterations=1\ntrain.rec_epochs_per_iter=1\n"
        "model.d_model=16\nmodel.layers=1\nmodel.heads=2\nmodel.ff_dim=32\n"
        "model.max_tgt_len=12\nallocator.groups=2\n"
    )
    raw, split, run_dir = tmp_path / "raw", tmp_path / "split", tmp_path / "run"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    assert run("train", "--data", split, "--out", run_dir, "--seed", 1, "--config", cfg) == 0
    assert (run_dir / "final" / "rec.ckpt").exists()


def test_unknown_config_section_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"nonsense": {"x": 1}}))
    raw, split = tmp_path / "raw", tmp_path / "split"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    assert run("train", "--data", split, "--out", tmp_path / "r", "--config", cfg) == 2


def test_invalid_json_config_exits_2_naming_the_file(tmp_path, capsys):
    cfg = tmp_path / "truncated.json"
    cfg.write_text('{"train": {')
    raw, split = tmp_path / "raw", tmp_path / "split"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    capsys.readouterr()
    assert run("train", "--data", split, "--out", tmp_path / "r", "--config", cfg) == 2
    assert f"{cfg}: invalid JSON (" in one_line_error(capsys)


def test_transfer_synth_writes_two_domains(tmp_path):
    out = tmp_path / "pair"
    assert run("synth", "--out", out, "--mode", "transfer", "--items", 8,
               "--users", 10, "--seed", 2) == 0
    for domain in ("domain_a", "domain_b"):
        assert (out / domain / "items.jsonl").exists()
        assert (out / domain / "interactions.jsonl").exists()
    items_a = [json.loads(l)["metadata"] for l in (out / "domain_a" / "items.jsonl").read_text().splitlines()]
    items_b = [json.loads(l)["metadata"] for l in (out / "domain_b" / "items.jsonl").read_text().splitlines()]
    assert items_a == items_b  # same texts, different keys


@pytest.mark.parametrize("mode,users", [("single", 0), ("single", -3), ("transfer", 0)])
def test_synth_without_users_exits_2(tmp_path, capsys, mode, users):
    out = tmp_path / "raw"
    assert run("synth", "--out", out, "--mode", mode, "--users", users, "--items", 6) == 2
    assert f"at least 1 user, got {users}" in one_line_error(capsys)
    assert not out.exists()


def test_eval_with_a_repeated_vocabulary_token_exits_2(tmp_path, capsys):
    split_dir, final = untrained_bundle(tmp_path)
    path = final / "vocab.tsv"
    lines = path.read_text().splitlines()
    lines[4] = lines[3].split("\t")[0] + "\t4"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    assert f"{path}:5: token " in one_line_error(capsys)


def drop_first_metadata(split_dir: Path) -> None:
    path = split_dir / "items.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    del rows[0]["metadata"]
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def retarget_first_test_pair(split_dir: Path) -> None:
    path = split_dir / "test.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["target"] = "no-such-item"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def write_dataset_json(text: str):
    def corrupt(split_dir: Path) -> None:
        (split_dir / "dataset.json").write_text(text)
    corrupt.__name__ = f"dataset_json_{text}"
    return corrupt


def set_field(fname: str, field: str, value):
    def corrupt(split_dir: Path) -> None:
        path = split_dir / f"{fname}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        rows[0][field] = value
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    corrupt.__name__ = f"set_{fname}_{field}"
    return corrupt


def drop_field(fname: str, field: str):
    def corrupt(split_dir: Path) -> None:
        path = split_dir / f"{fname}.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        del rows[0][field]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    corrupt.__name__ = f"drop_{fname}_{field}"
    return corrupt


@pytest.mark.parametrize("corrupt,expected", [
    (drop_first_metadata, "metadata"),
    (retarget_first_test_pair, "no-such-item"),
    (drop_field("train", "items"), "train.jsonl"),
    (drop_field("train", "user"), "train.jsonl"),
    (drop_field("valid", "history"), "valid.jsonl"),
    (drop_field("test", "target"), "test.jsonl"),
    # a list, a missing name and an int name exited 4, 4 and 0; invalid JSON
    # exited 2 without naming the file
    (write_dataset_json("[]"), "dataset.json"),
    (write_dataset_json('{"nam": 1}'), "dataset.json"),
    (write_dataset_json('{"name": 5}'), "dataset.json"),
    (write_dataset_json('{"name": "raw"'), "dataset.json"),
    # an object user trained and exited 0; an empty history exited 2 naming
    # no file
    (set_field("train", "user", {"id": 1}), "train.jsonl"),
    (set_field("valid", "history", []), "valid.jsonl"),
    (set_field("train", "items", []), "train.jsonl"),
])
def test_eval_with_bad_split_exits_2(tmp_path, capsys, corrupt, expected):
    split_dir, final = untrained_bundle(tmp_path)
    corrupt(split_dir)
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    assert expected in one_line_error(capsys)


def write_garbage(path: Path) -> None:
    path.write_bytes(b"not a checkpoint at all" * 8)


def write_npz_without_meta(path: Path) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **{"p:tok_emb": np.zeros((2, 2))})


@pytest.mark.parametrize("corrupt", [write_garbage, write_npz_without_meta])
def test_eval_with_corrupt_checkpoint_names_the_file(tmp_path, capsys, corrupt):
    split_dir, final = untrained_bundle(tmp_path)
    corrupt(final / "rec.ckpt")
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    err = one_line_error(capsys)
    assert str(final / "rec.ckpt") in err and "checkpoint" in err


def test_eval_with_registry_from_another_generator_exits_3(tmp_path, capsys):
    split_dir, final = untrained_bundle(tmp_path)
    ids = final / "ids.tsv"
    header, rest = ids.read_text().split("\n", 1)
    assert header.startswith("#generator_hash=")
    ids.write_text("#generator_hash=" + "0" * 64 + "\n" + rest)
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 3
    assert "ids.tsv" in one_line_error(capsys)


def test_eval_ranks_a_pair_whose_user_has_no_train_log(tmp_path, capsys):
    # a split may name a user that train.jsonl does not: the pair is ranked
    # from its own history
    split_dir, final = untrained_bundle(tmp_path)
    set_field("test", "user", "newcomer")(split_dir)
    split = corpus.load_split(split_dir)
    assert "newcomer" not in {log.user for log in split.train}
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 0
    ranks = json.loads((tmp_path / "m.json").read_text())["ranks"]
    user, target, rank = ranks[0]
    assert (user, target) == ("newcomer", split.test[0].target) and 1 <= rank <= len(split.items)


def test_eval_uses_the_config_allocator_section(tmp_path, monkeypatch):
    split_dir, final = untrained_bundle(tmp_path)
    seen = {}

    def fake_evaluate(bundle, split, **kwargs):
        seen.update(kwargs)
        return evaluation.EvalReport(dataset=split.name, mode="standard", user_count=0,
                                     hr={}, ndcg={}, ranks=())

    monkeypatch.setattr(evaluation, "evaluate", fake_evaluate)
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json",
               "--config", write_config(tmp_path)) == 0
    assert seen["alloc_cfg"] == AllocatorConfig(groups=4)


@pytest.mark.parametrize("config,section", [
    ({"train": 5}, "train"),
    ({"train": {"iterations": "3"}}, "train"),
    ({"train": {"iterations": 0}}, "train"),
    ({"allocator": {"length_ranges": 5}}, "allocator"),
    ({"allocator": {"length_ranges": [[1, "10"]]}}, "allocator"),
    ({"model": {"d_model": 16.5}}, "model"),
    ({"vocab": {"min_freq": [2]}}, "vocab"),
    # DBS is deterministic, so the allocator has no seed
    ({"allocator": {"groups": 4, "seed": 1}}, "allocator"),
    ({"vocab": {"max_size": 2}}, "vocab"),
    ({"vocab": {"min_freq": 0}}, "vocab"),
    ({"model": {"seed": -1}}, "model"),
    # 100 000 beams per search ran past a minute; a billion ran out of memory
    ({"allocator": {"groups": 100000}}, "allocator"),
    ({"allocator": {"groups": 1000000000}}, "allocator"),
    # NaN <= 0 is false: a NaN learning rate trained NaN parameters and exited 0
    ({"train": {"lr_rec": math.nan}}, "train"),
    ({"train": {"lr_idgen": math.inf}}, "train"),
    # a finite rate that diverges: lr_rec trained NaN parameters and exited 0,
    # lr_idgen exited 4 blaming the vocabulary
    ({"train": {"lr_rec": 1e300}}, "train"),
    ({"train": {"lr_idgen": 1e300}}, "train"),
    # one step per phase: the phase's last step diverges, and only the step
    # after the phase sees it; the message named neither phase nor rate
    ({"train": {"lr_idgen": 1e300, "iterations": 1, "rec_epochs_per_iter": 1, "idgen_epochs_per_iter": 1,
                "batch_size": 1000}}, "train"),
    ({"train": {"lr_rec": 1e300, "iterations": 1, "rec_epochs_per_iter": 1, "idgen_epochs_per_iter": 1,
                "batch_size": 1000}}, "train"),
    # d_model % heads ran before the size checks: a traceback, exit 4
    ({"model": {"heads": 0}}, "model"),
    # the built vocabulary's size silently won over it: exit 0
    ({"model": {"vocab_size": 1}}, "model"),
])
def test_train_with_bad_config_exits_2_naming_the_section(tmp_path, capsys, config, section):
    raw, split = tmp_path / "raw", tmp_path / "split"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, **config}))
    capsys.readouterr()
    assert run("train", "--data", split, "--out", tmp_path / "r", "--config", cfg) == 2
    assert f"'{section}'" in one_line_error(capsys)


# every field of every --config section, each with the edges of its type
# and a wrong type; a new field is swept without a change here
SWEPT_FIELDS = {section: [field.name for field in dataclasses.fields(build)]
                for section, build in (("train", TrainConfig), ("model", ModelConfig),
                                       ("allocator", AllocatorConfig))}
SWEPT_FIELDS["vocab"] = ["min_freq", "max_size"]
SWEPT_VALUES = [0, -1, 1, 1e-300, 1e300, math.inf, math.nan, "1"]
# work-size fields are checked for acceptance only: a large one is a long
# job, not a fault (a million iterations, epochs or layers ran past 40 s)
WORK_SIZE = {"train": ("iterations", "rec_epochs_per_iter", "idgen_epochs_per_iter"), "model": ("layers",)}
SWEEP_CONFIG = {**TINY_CONFIG, "train": {"iterations": 1, "rec_epochs_per_iter": 1, "idgen_epochs_per_iter": 1}}


@pytest.fixture(scope="module")
def sweep_data(tmp_path_factory) -> tuple[Path, Path]:
    """A raw 6-item synth set and its split."""
    raw, split = (tmp_path_factory.mktemp("sweep") / name for name in ("raw", "split"))
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    return raw, split


@pytest.mark.parametrize("section,field,value", [
    pytest.param(section, field, value, id=f"{section}.{field}={value!r}")
    for section, fields in SWEPT_FIELDS.items() for field in fields for value in SWEPT_VALUES])
def test_config_sweep_exits_0_or_2_naming_the_section(sweep_data, tmp_path, section, field, value):
    # `model.heads: 0` divided by zero before the size checks (exit 4);
    # `train.seed: -1` named section 'model' and `model.max_tgt_len: 1` none
    config = {**SWEEP_CONFIG, section: {**SWEEP_CONFIG.get(section, {}), field: value}}
    if field in WORK_SIZE.get(section, ()):
        build, fixed = {"train": (TrainConfig, {}), "model": (ModelConfig, {"vocab_size": 20})}[section]
        try:
            _config(build, {s: config.get(s, {}) for s in SWEPT_FIELDS}, section, **fixed)
        except DataFormatError as exc:
            assert str(exc).startswith(f"config section '{section}': ")
        return
    raw, split = sweep_data
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    if section == "train":
        done = run_capped("train", "--data", split, "--out", tmp_path / "run", "--config", cfg, timeout=60)
    else:
        done = run_capped("allocate", "--data", raw, "--out", tmp_path / "ids.tsv", "--config", cfg, timeout=60)
    assert done.returncode in (0, 2) and "Traceback" not in done.stderr, done.stderr
    if done.returncode == 2:
        assert len(done.stderr.splitlines()) == 1 and f"'{section}'" in done.stderr, done.stderr


@pytest.mark.parametrize("max_size", [3, 4])
def test_train_with_under_two_usable_tokens_exits_2_before_writing(tmp_path, capsys, max_size):
    # refused where the vocabulary is built: the first allocation refused it
    # after `train` had written the run directory
    raw, split, out = tmp_path / "raw", tmp_path / "split", tmp_path / "r"
    assert run("synth", "--out", raw, "--users", 10, "--items", 6, "--seed", 3) == 0
    assert run("ingest", "--data", raw, "--out", split, "--k", 3) == 0
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({**TINY_CONFIG, "vocab": {"max_size": max_size}}))
    capsys.readouterr()
    assert run("train", "--data", split, "--out", out, "--config", cfg) == 2
    assert f"config section 'vocab': the vocabulary has {max_size - 3} usable tokens" in one_line_error(capsys)
    assert not out.exists()


@pytest.mark.parametrize("level", ["verbose", "10"])
def test_unknown_log_level_exits_2_with_one_line(tmp_path, capsys, monkeypatch, level):
    monkeypatch.setenv("IDGEN_LOG", level)
    out = tmp_path / "raw"
    argv = ["synth", "--out", out, "--users", 10, "--items", 6]
    assert run(*argv) == 2
    assert one_line_error(capsys) == f"error: IDGEN_LOG: unknown log level {level!r}\n"
    assert not out.exists()
    monkeypatch.setenv("IDGEN_LOG", "warn")  # a known name, in any case
    assert run(*argv) == 0 and out.exists()


def test_eval_with_checkpoint_missing_a_parameter_exits_2(tmp_path, capsys):
    split_dir, final = untrained_bundle(tmp_path)
    path = final / "rec.ckpt"
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files if key != "p:dec_ln_g"}
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    err = one_line_error(capsys)
    assert str(path) in err and "dec_ln_g" in err


def test_eval_of_a_bundle_with_a_nan_parameter_exits_2(tmp_path, capsys):
    # it ranked NaN scores, exited 0 and reported them as hit rates
    split_dir, final = untrained_bundle(tmp_path)
    path = final / "rec.ckpt"
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    arrays["p:dec_ln_g"][0] = np.nan
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    out = tmp_path / "m.json"
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", out) == 2
    assert "not finite" in one_line_error(capsys) and not out.exists()


def test_eval_with_bad_checkpoint_meta_exits_2(tmp_path, capsys):
    split_dir, final = untrained_bundle(tmp_path)
    path = final / "rec.ckpt"
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    meta["config"]["dropout"] = 1
    arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    err = one_line_error(capsys)
    assert str(path) in err and "dropout" in err


@pytest.mark.parametrize("record", ["{}", "[1]", '{"iteration": "2"}', "{not json"])
def test_eval_with_bad_bundle_record_exits_2(tmp_path, capsys, record):
    split_dir, final = untrained_bundle(tmp_path)
    (final / "bundle.json").write_text(record)
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    assert str(final / "bundle.json") in one_line_error(capsys)


@pytest.mark.parametrize("words", [[], ["hat"]])
def test_eval_of_a_bundle_with_under_two_usable_tokens_exits_2(tmp_path, capsys, words):
    # refused where the bundle is loaded, naming the file: it used to reach
    # the checkpoints' vocabulary check and exit 3
    split_dir, final = untrained_bundle(tmp_path)
    build_vocab([" ".join(words)] * 2).save_tsv(final / "vocab.tsv")
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    assert f"{final / 'vocab.tsv'}: the vocabulary has {len(words)} usable tokens" in one_line_error(capsys)


def duplicate_first_row(lines: list[str]) -> list[str]:
    return lines + [lines[1]]


def unknown_word_in_first_row(lines: list[str]) -> list[str]:
    key, text, lam, range_index = lines[1].split("\t")
    return [lines[0], "\t".join((key, text + " qwertyzzz", lam, range_index))] + lines[2:]


@pytest.mark.parametrize("corrupt,line,reason", [
    (duplicate_first_row, None, "already on line 2"),
    (unknown_word_in_first_row, 2, "outside the vocabulary"),
])
def test_eval_with_corrupt_registry_exits_2(tmp_path, capsys, corrupt, line, reason):
    split_dir, final = untrained_bundle(tmp_path)
    ids = final / "ids.tsv"
    lines = corrupt(ids.read_text().splitlines())
    ids.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run("eval", "--bundle", final, "--data", split_dir, "--out", tmp_path / "m.json") == 2
    err = one_line_error(capsys)
    assert f"{ids}:{line or len(lines)}: " in err and reason in err
