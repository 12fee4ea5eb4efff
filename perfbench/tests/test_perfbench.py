"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())

# metrics each workload prints by name and unit, besides the JSON line
REPORTED = {
    "train-cyclic": {"train_s": "s", "test_hr5": "ratio", "test_ndcg10": "ratio"},
    "rank-catalog": {"rank_user_ms_p50": "ms", "rank_user_ms_p90": "ms", "rank_samples": "count"},
    "alloc-dup": {"alloc_items_per_s": "items/s", "alloc_fallback_frac": "ratio"},
}
REPORTED_ALL = {"peak_rss_mb": "MiB", "error_rate": "ratio"}


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_emits_every_declared_metric(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[1]: line.split()[3] for line in lines if line.startswith("metric ")}
    expected = dict(REPORTED[name], **REPORTED_ALL)
    if not trace:
        expected.update(setup_s="s", host_slowdown="ratio")
    assert printed == expected
    assert any(line.startswith("digest ") and len(line.split()[1]) == 64 for line in lines)


def test_same_seed_gives_same_digest():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "alloc-dup", "--seed", "5", "--seconds", "0", "--tiny")
        digests.append([line for line in proc.stdout.splitlines() if line.startswith("digest ")])
    assert digests[0] == digests[1] and digests[0]


def _tally_with(workload, corrupt) -> run.Tally:
    op = workload.op
    workload.op = lambda i: corrupt(op(i))
    tally = run.Tally()
    tally.run(workload, 0)
    return tally


def test_duplicated_id_counts_as_failure():
    workload = workloads.AllocDup(1, tiny=True)
    workload.setup()

    def duplicate(registry):
        keys = list(registry.ids)
        registry.ids[keys[1]] = registry.ids[keys[0]]
        return registry

    tally = _tally_with(workload, duplicate)
    assert tally.error_rate > 0 and "duplicated" in tally.problems[0]


def test_misordered_ranking_counts_as_failure():
    workload = workloads.RankCatalog(1, tiny=True)
    workload.setup()
    tally = _tally_with(workload, lambda out: (out[0], out[1][::-1]))
    assert tally.error_rate > 0 and "sorted" in " ".join(tally.problems)


def test_non_finite_loss_counts_as_failure():
    workload = workloads.TrainCyclic(1, tiny=True)
    workload.setup()

    def poison(result):
        result["losses"][0] = float("nan")
        return result

    tally = _tally_with(workload, poison)
    assert tally.error_rate > 0 and "non-finite" in " ".join(tally.problems)


def test_clean_operation_passes_every_check():
    workload = workloads.RankCatalog(2, tiny=True)
    workload.setup()
    tally = run.Tally()
    for i in range(len(workload.prompts) + 1):
        tally.run(workload, i)
    assert tally.error_rate == 0, tally.problems


def test_tracer_wraps_imported_names_and_restores_them():
    from textidrec import allocator, evaluation, recommender, training

    originals = (training.allocate_all, evaluation.rank_all, allocator.allocate_all)
    tracer = Tracer()
    tracer.install()
    try:
        assert training.allocate_all is allocator.allocate_all
        assert evaluation.rank_all is recommender.rank_all
        assert training.allocate_all is not originals[0] and evaluation.rank_all is not originals[1]
        workload = workloads.RankCatalog(1, tiny=True)
        with tracer.region("bench.setup"):
            workload.setup()
        with tracer.region("bench.op"):
            workload.op(0)
    finally:
        tracer.uninstall()
    assert (training.allocate_all, evaluation.rank_all, allocator.allocate_all) == originals
    metrics = tracer.per_layer_metrics()
    assert metrics["recommender.rank_all.calls"] == 1
    assert metrics["allocator.allocate_all.calls"] == 1
    assert metrics["recommender.decoder_calls_per_rank"] == metrics["recommender.trie_inner_nodes"] > 0
    assert metrics["trace.accounted_frac"] == pytest.approx(1.0, abs=1e-9)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "rank-catalog", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert "package source not found" in proc.stderr
