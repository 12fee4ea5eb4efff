"""textidrec benchmark: train, rank and allocate workloads, end to end and
per layer.

    python3 perfbench/run.py --workload rank-catalog --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py              # every workload, each in its own process

A run is one process and one client: each operation starts when the previous
one has returned. `--trace 0` times operations for `--seconds` and prints the
end-to-end metrics; `--trace 1` runs a fixed amount of work once untraced and
once traced and prints the per-layer metrics. The last stdout line is one JSON
object; the lines before it give every metric by name and unit, the
environment and an output digest. Results and spans go to `perfbench/out/`.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP threads before numpy is imported anywhere.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
THREADS_BEFORE = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import logging  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
# Setup runs at least SETUP_MIN_REPEATS times and for at least SETUP_MIN_S;
# its median is reported, so a setup of a few milliseconds is still steady.
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 200


class BenchError(Exception):
    """The benchmark cannot run here; reported as one line, exit code 2."""


def _import_package():
    """Import textidrec from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "textidrec" / "__init__.py").is_file():
        raise BenchError(f"package source not found at {src / 'textidrec'}")
    sys.path.insert(0, str(src))
    import textidrec

    if Path(textidrec.__file__).resolve().parent != (src / "textidrec").resolve():
        raise BenchError(f"imported textidrec from {textidrec.__file__}, not from {src}")


def _declared() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: {"before": THREADS_BEFORE[var], "pinned": os.environ[var]} for var in THREAD_VARS},
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


class Tally:
    """Operations attempted and failed, with each operation's start and end."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.intervals: list[tuple[float, float]] = []
        self.problems: list[str] = []

    def run(self, workload, i: int) -> float:
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = workload.op(i)
        except Exception:  # a failed operation is counted, and the loop goes on
            self.failed += 1
            self.problems.append(f"op {i}: {traceback.format_exc(limit=3)}")
            return time.perf_counter() - start
        end = time.perf_counter()
        self.intervals.append((start, end))
        problems = workload.check(i, output)
        if problems:
            self.failed += 1
            self.problems.extend(f"op {i}: {p}" for p in problems)
        return end - start

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def timed_setup(workload) -> list[tuple[float, float]]:
    """Run setup several times; the workload keeps the last one's state."""
    intervals: list[tuple[float, float]] = []
    while len(intervals) < SETUP_MIN_REPEATS or (
            sum(e - s for s, e in intervals) < SETUP_MIN_S and len(intervals) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        workload.setup()
        intervals.append((start, time.perf_counter()))
    return intervals


def measure(workload, seconds: float, tally: Tally) -> None:
    """Closed loop: run operations until `seconds` have passed and at least
    `workload.min_ops` operations are done."""
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        tally.run(workload, i)
        i += 1


def run_untraced(workload, args) -> tuple[dict, Tally, dict]:
    """Every time is scaled to the reference host speed (see hostspeed.py)."""
    from hostspeed import HostSpeed
    from workloads import percentile

    tally = Tally()
    with HostSpeed() as speed:
        setups = timed_setup(workload)
        measure(workload, args.seconds, tally)
    lat_ms = sorted(speed.scaled(s, e) * 1000 for s, e in tally.intervals) or [float("nan")]
    metrics = {
        "op_ms_p50": statistics.median(lat_ms),
        "op_ms_p90": percentile(lat_ms, 90),
        "setup_s": statistics.median(speed.scaled(s, e) for s, e in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_ms = sorted((e - s) * 1000 for s, e in tally.intervals) or [float("nan")]
    extra = {"scale": speed.scaled, "host_slowdown": speed.slowdown(),
             "raw_op_ms_p50": statistics.median(raw_ms),
             "raw_setup_s": statistics.median(e - s for s, e in setups)}
    return metrics, tally, extra


def run_traced(workload, args) -> tuple[dict, Tally, dict]:
    """One traced setup, then the workload's fixed work untraced and traced;
    the difference in wall time is the tracing overhead."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    with tracer.region("bench.setup"):
        workload.setup()
    tracer.uninstall()
    tally = Tally()
    untraced = sum(tally.run(workload, i) for i in range(workload.trace_ops))
    tracer.install()
    traced = 0.0
    for i in range(workload.trace_ops):
        with tracer.region("bench.op"):
            traced += tally.run(workload, i)
    tracer.uninstall()
    metrics = tracer.per_layer_metrics()
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.overhead_frac"] = (traced - untraced) / untraced
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"{_stem(args)}-spans.jsonl.gz"
    tracer.write_spans(spans_path)
    extra = {"scale": lambda start, end: end - start,
             "layers": tracer.layer_summary(), "spans_file": str(spans_path.relative_to(ROOT)),
             "untraced_s": untraced, "traced_s": traced}
    return metrics, tally, extra


def _stem(args) -> str:
    return f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-tiny" if args.tiny else "")


def run_one(args, declared: dict) -> int:
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[section]}
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    env = environment(args)
    metrics, tally, extra = (run_traced if args.trace else run_untraced)(workload, args)
    if not tally.intervals:
        raise BenchError(f"every operation failed: {tally.problems[0]}")
    if set(metrics) != set(units):
        raise BenchError(f"emitted metrics differ from BENCHMARK.json {section}: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"undeclared {sorted(set(metrics) - set(units))}")
    scale = extra.pop("scale")
    report = workload.report([scale(s, e) for s, e in tally.intervals], scale)
    if not args.trace:
        report["setup_s"] = (metrics["setup_s"], "s")
        report["host_slowdown"] = (extra["host_slowdown"], "ratio")
    report["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
    report["error_rate"] = (tally.error_rate, "ratio")
    digest = workload.digest()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{tally.attempted} operations, {tally.failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for problem in tally.problems[:20]:
        print("FAILED " + problem.rstrip().replace("\n", " | "))
    for name, (value, unit) in report.items():
        print(f"metric {name} {value:.6g} {unit}")
    if args.trace:
        layers = sorted(extra["layers"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in layers[:15]:
            print(f"layer {name:36s} calls {row['calls']:>8d}  inclusive {row['inclusive_s']:9.4f} s  "
                  f"self {row['self_s']:9.4f} s")
    print(f"digest {digest}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "attempted": tally.attempted, "failed": tally.failed,
              "problems": tally.problems, "report": report, "digest": digest,
              "metrics": metrics, **extra}
    (OUT_DIR / f"{_stem(args)}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        help="train-cyclic, rank-catalog, alloc-dup, or all (the default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.ERROR)
    try:
        declared = _declared()
        _import_package()
        sys.path.insert(0, str(BENCH_DIR))
        from workloads import WORKLOADS

        if args.workload == "all":
            return run_all(args)
        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
        return run_one(args, declared)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
