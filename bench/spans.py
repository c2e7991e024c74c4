"""Outside-in tracing: spans around the calls into each fedka module.

The tracer replaces module attributes and class methods with timing
wrappers for as long as it is installed, and puts the originals back when
it is removed. Nothing under src/ knows about it. A function imported by
name into another module is wrapped at every place a caller looks it up
(``federation`` imports ``stream``, ``classwise_accuracy`` and
``apply_reduction_schedule`` by name, for example), all under one span name.

A span is (name, start, end, parent index, experiment id). Spans stay in
memory; ``summarize`` turns one experiment's spans into per-name totals.
Tracing assumes one thread: runs with ``parallel_clients > 1`` are never
traced.
"""

from __future__ import annotations

import time
from collections import defaultdict

from fedka import anchor, config, data, federation, metrics, nn, rng

# (span name, [(namespace, attribute), ...]); a namespace is a module or class.
TARGETS = [
    ("config.resolve", [(config, "resolve")]),
    ("rng.stream", [(rng, "stream"), (data, "stream"), (anchor, "stream"), (federation, "stream")]),
    ("rng.derive_seed", [(config, "derive_seed")]),
    ("data.synth_blobs", [(data, "synth_blobs"), (federation, "synth_blobs")]),
    ("data.load_idx", [(data, "load_idx"), (federation, "load_idx")]),
    ("data.dirichlet_partition", [(data, "dirichlet_partition"), (federation, "dirichlet_partition")]),
    ("data.apply_reduction_schedule", [(data, "apply_reduction_schedule"),
                                       (federation, "apply_reduction_schedule")]),
    ("data.make_shard", [(data, "make_shard")]),
    ("nn.init_state", [(nn, "init_state")]),
    ("nn.ce_loss_and_grad", [(nn, "ce_loss_and_grad")]),
    ("nn.forward_with_caches", [(nn, "forward_with_caches")]),
    ("nn.forward_logits", [(nn, "forward_logits")]),
    ("nn.backward_from_logits", [(nn, "backward_from_logits")]),
    ("nn.per_sample_ce", [(nn, "per_sample_ce")]),
    ("nn.sgd_step", [(nn, "sgd_step")]),
    ("nn.save_state", [(nn, "save_state")]),
    ("nn.NetworkSpec.save", [(nn.NetworkSpec, "save")]),
    *[(f"nn.{cls.__name__}.{method}", [(cls, method)])
      for cls in (nn.Dense, nn.Relu, nn.Conv2d, nn.MaxPool, nn.Flatten)
      for method in ("forward", "backward")],
    ("anchor.build_shared_dataset", [(anchor, "build_shared_dataset")]),
    ("anchor.select_anchor_strategy", [(anchor, "select_anchor_strategy")]),
    ("anchor.build_anchor", [(anchor, "build_anchor")]),
    ("anchor.downsample_anchor", [(anchor, "downsample_anchor")]),
    ("anchor.ka_loss_and_grad", [(anchor, "ka_loss_and_grad")]),
    ("anchor.KnowledgeAnchor.inputs", [(anchor.KnowledgeAnchor, "inputs")]),
    ("federation.run_experiment", [(federation, "run_experiment")]),
    ("federation.build_datasets", [(federation, "build_datasets")]),
    ("federation.build_model_spec", [(federation, "build_model_spec")]),
    ("federation.build_shards", [(federation, "build_shards")]),
    ("federation.sample_participants", [(federation, "sample_participants")]),
    ("federation.local_train", [(federation, "local_train")]),
    ("federation.aggregate", [(federation, "aggregate")]),
    ("metrics.classwise_accuracy", [(metrics, "classwise_accuracy"),
                                    (federation, "classwise_accuracy")]),
    ("metrics.global_accuracy", [(federation, "global_accuracy")]),
    ("metrics.measure_local_forgetting", [(federation, "measure_local_forgetting")]),
    ("metrics.MetricsWriter.__init__", [(metrics.MetricsWriter, "__init__")]),
    ("metrics.MetricsWriter.write_round", [(metrics.MetricsWriter, "write_round")]),
    ("metrics.MetricsWriter.write_forgetting", [(metrics.MetricsWriter, "write_forgetting")]),
    ("metrics.MetricsWriter.close", [(metrics.MetricsWriter, "close")]),
    ("metrics.write_summary", [(federation, "write_summary")]),
]

# Quantities read off a call's arguments or result, summed per experiment.
COUNTERS = {
    "anchor.downsample_anchor": ("anchor.entries", lambda args, result: len(result)),
    "metrics.classwise_accuracy": ("metrics.eval_samples", lambda args, result: len(args[2])),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.experiment = 0
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.experiment)
            if counter is not None:
                counts[counter[0]] += counter[1](args, result)
            return result

        return traced

    def install(self) -> None:
        for name, sites in TARGETS:
            wrappers = {}
            for namespace, attr in sites:
                original = namespace.__dict__[attr]
                if original not in wrappers:
                    wrappers[original] = self._wrap(name, original)
                self._saved.append((namespace, attr, original))
                setattr(namespace, attr, wrappers[original])

    def remove(self) -> None:
        while self._saved:
            namespace, attr, original = self._saved.pop()
            setattr(namespace, attr, original)

    def take(self) -> tuple[list, dict]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


def summarize(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: total time ``s``, time not covered by child spans
    ``self_s``, and ``calls``; plus the time of teacher-logit passes, the
    ``forward_logits`` calls made directly by ``local_train``."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (name, start, end, parent, _) in enumerate(spans):
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["calls"] += 1
        if name == "nn.forward_logits" and parent >= 0 and spans[parent][0] == "federation.local_train":
            out["anchor.teacher_logits"]["s"] += end - start
            out["anchor.teacher_logits"]["calls"] += 1
    return dict(out)
