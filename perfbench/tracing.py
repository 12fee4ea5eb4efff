"""Span tracing of the textidrec layers, installed from outside the package.

`Tracer.install()` replaces every public function of the traced modules, and
every public method of the classes they define, with a wrapper that records
a span (name, start, end, parent). The replacement is made at every binding
of the function in every loaded textidrec module, so a name imported into
another module (`training.allocate_all`, `evaluation.rank_all`) is traced
too. `uninstall()` puts the originals back.

Spans stay in memory; `write_spans` dumps them once the run is over.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict

LAYERS = ("corpus", "tokenizer", "synth", "prompting", "model", "autograd",
          "allocator", "recommender", "training", "evaluation")

# Tensor arithmetic runs hundreds of thousands of times per operation; a span
# each would cost more than the op itself. Those calls are counted through the
# private `Tensor._op` hook instead, and only `backward` gets a span.
_TENSOR_SPANNED = {"backward"}

# Phases of `training.alternate_train`: direct children with these span names.
TRAIN_PHASES = {
    "allocator.allocate_all": "training.allocation.s",
    "training.snapshot_user_ids": "training.user_snapshot.s",
    "training.train_idgen_phase": "training.idgen_phase.s",
    "training.train_recommender_phase": "training.rec_phase.s",
    "evaluation.evaluate": "training.valid_eval.s",
    "training.save": "training.save.s",
}


def inner_nodes(trie) -> int:
    """Trie nodes with at least one child: one decoder pass each in rank_all."""
    count, stack = 0, [trie.root]
    while stack:
        node = stack.pop()
        if node.children:
            count += 1
            stack.extend(node.children.values())
    return count


class Tracer:
    """In-memory span recorder plus counters observed at layer boundaries."""

    def __init__(self) -> None:
        # Spans live in flat arrays rather than one list per span: millions of
        # small containers would change how often the cyclic garbage
        # collector runs, and with it the time being measured.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")  # index of the enclosing span, or -1
        self._open: list[int] = []
        self.counters: Counter = Counter()
        self.alloc_totals: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.parents.append(self._open[-1] if self._open else -1)
        self.names.append(name)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def region(self, name: str):
        """A span the benchmark itself opens, such as one per operation."""
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if observe is not None:
                observe(self, result, args, kwargs)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"textidrec.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                    self._set(module, attr, replaced[id(obj)])
                elif inspect.isclass(obj):
                    self._install_methods(layer, obj)
        # rebind names imported into other modules (`from .x import f`)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] != "textidrec" or module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, attr, replaced[id(obj)])
        from textidrec.autograd import Tensor

        op = Tensor.__dict__["_op"].__func__
        counters = self.counters

        def counted_op(data, parents, backward):
            counters["autograd.ops"] += 1
            return op(data, parents, backward)

        self._set(Tensor, "_op", staticmethod(counted_op))

    def _install_methods(self, layer: str, cls) -> None:
        from textidrec.autograd import Tensor

        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") or (cls is Tensor and attr not in _TENSOR_SPANNED):
                continue
            name = f"{layer}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                self._set(cls, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- summaries -----------------------------------------------------------

    def layer_summary(self) -> dict[str, dict[str, float]]:
        """calls, inclusive seconds and self seconds per span name. A span's
        self time is its duration minus the durations of its child spans."""
        names, parents = self.names, self.parents
        durations = [end - start for start, end in zip(self.starts, self.ends)]
        child_time = [0.0] * len(names)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_time[parent] += durations[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for i, name in enumerate(names):
            row = out[name]
            row["calls"] += 1
            row["inclusive_s"] += durations[i]
            row["self_s"] += durations[i] - child_time[i]
        return dict(out)

    def _ancestor_named(self, index: int, wanted: set[str]) -> int:
        parent = self.parents[index]
        while parent >= 0 and self.names[parent] not in wanted:
            parent = self.parents[parent]
        return parent

    def per_layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json, from spans and counters.

        Absent layers read 0: a workload that never calls a layer reports that
        it did no work there.
        """
        summary = self.layer_summary()
        names, parents = self.names, self.parents
        duration = [end - start for start, end in zip(self.starts, self.ends)]

        def get(name: str, key: str) -> float:
            return summary.get(name, {}).get(key, 0)

        m: dict[str, float] = {"autograd.ops": self.counters["autograd.ops"]}
        for name in ("autograd.backward", "model.apply_update", "model.sequence_nll",
                     "model.encode", "model.decoder_all_logits", "recommender.rank_all",
                     "allocator.diverse_beam_search", "prompting.render_prompt",
                     "tokenizer.encode"):
            m[f"{name}.calls"] = get(name, "calls")
            m[f"{name}.self_s"] = get(name, "self_s")
        m["model.decoder_all_logits.rows"] = self.counters["model.decoder_all_logits.rows"]
        for name in ("model.decoder_logits", "model.next_token_logprobs",
                     "allocator.allocate_all", "allocator.generate_user_id"):
            m[f"{name}.calls"] = get(name, "calls")
        for name in ("allocator.allocate_all", "allocator.generate_user_id",
                     "recommender.build_trie", "tokenizer.build_vocab",
                     "corpus.filter_k_core", "corpus.leave_one_out_split"):
            m[f"{name}.s"] = get(name, "inclusive_s")

        # decoder passes attributed to the ranking or allocation that caused them
        decoder_in = Counter()
        for i, name in enumerate(names):
            if name == "model.decoder_all_logits":
                owner = self._ancestor_named(i, {"recommender.rank_all", "allocator.allocate_all"})
                if owner >= 0:
                    decoder_in[names[owner]] += 1
        ranks = get("recommender.rank_all", "calls")
        m["recommender.decoder_calls_per_rank"] = decoder_in["recommender.rank_all"] / ranks if ranks else 0.0
        m["recommender.trie_inner_nodes"] = self.counters["recommender.trie_inner_nodes"]
        items = self.alloc_totals["items"]
        m["allocator.decoder_calls_per_item"] = decoder_in["allocator.allocate_all"] / items if items else 0.0
        for key in ("escalated", "extended", "fallback"):
            m[f"allocator.{key}_frac"] = self.alloc_totals[key] / items if items else 0.0

        phases = dict.fromkeys(TRAIN_PHASES.values(), 0.0)
        for i, name in enumerate(names):
            if name in TRAIN_PHASES and parents[i] >= 0 and names[parents[i]] == "training.alternate_train":
                phases[TRAIN_PHASES[name]] += duration[i]
        train_total = get("training.alternate_train", "inclusive_s")
        m.update(phases)
        m["training.other.s"] = train_total - sum(phases.values()) if train_total else 0.0
        m["training.alternate_train.s"] = train_total

        m["synth.s"] = sum(duration[i] for i, name in enumerate(names)
                           if name.startswith("synth.")
                           and (parents[i] < 0 or not names[parents[i]].startswith("synth.")))

        wall = sum(duration[i] for i, parent in enumerate(parents) if parent < 0)
        self_total = sum(row["self_s"] for row in summary.values())
        bench_self = sum(row["self_s"] for name, row in summary.items() if name.startswith("bench."))
        m["trace.spans"] = len(names)
        m["trace.wall_s"] = wall
        m["trace.accounted_frac"] = self_total / wall if wall else 0.0
        m["trace.unattributed_frac"] = bench_self / wall if wall else 0.0
        return m

    def write_spans(self, path) -> None:
        """One JSON array per line: [index, parent, name, start_s, end_s],
        times relative to the first span."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, self.parents[i], name, round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9)]) + "\n")


# -- observers: counters read from a layer's result at its boundary -----------


def _observe_decoder(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counters["model.decoder_all_logits.rows"] += result.data.shape[0]


def _observe_trie(tracer: Tracer, result, args, kwargs) -> None:
    tracer.counters["recommender.trie_inner_nodes"] = inner_nodes(result)


def _observe_allocation(tracer: Tracer, result, args, kwargs) -> None:
    config = kwargs.get("config", args[3] if len(args) > 3 else None)
    stats = result.stats(lam_init=config.lam_init)
    items = stats["items"]
    tracer.alloc_totals["items"] += items
    tracer.alloc_totals["escalated"] += stats["fraction_lambda_escalated"] * items
    tracer.alloc_totals["extended"] += stats["fraction_length_extended"] * items
    tracer.alloc_totals["fallback"] += stats["fallback_count"]


_OBSERVERS = {
    "model.decoder_all_logits": _observe_decoder,
    "recommender.build_trie": _observe_trie,
    "allocator.allocate_all": _observe_allocation,
}
