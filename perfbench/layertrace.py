"""Span tracing of the dbalign layers, installed from outside the library.

``Tracer.installed()`` swaps the module attributes through which the
layers call each other for wrappers that record one span per call: name,
start, end, parent span and trial. Each span also carries the counts that
its layer did, measured at the same boundary. Spans stay in memory; the
caller writes them out when the run ends. Leaving the ``with`` block puts
the original functions back.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import threading
import time
import tracemalloc
from collections import Counter

MIB = 1024 * 1024

# (module holding the attribute the caller looks up, attribute name)
TRACED = (
    ("experiment", "run_trial"),
    ("experiment", "sample_instance"),
    ("experiment", "capacity"),
    ("experiment", "estimate_tv_distance"),
    ("matching", "deanonymize"),
    ("replicas", "detect_replicas"),
    ("deletions", "detect_deletions"),
    ("deletions", "cross_hamming"),
    ("estimation", "estimate_from_seeds"),
    ("matching", "segment"),
    ("matching", "match_rows"),
)

TRIAL_SPAN = "experiment.run_trial"
REPLICA_SPAN = "replicas.detect_replicas"
# Spans that cover a layer's own work, as opposed to the trial and the
# pipeline that only call other layers.
LAYER_SPANS = (
    "model.sample_instance",
    "replicas.detect_replicas",
    "deletions.detect_deletions",
    "estimation.estimate_from_seeds",
    "matching.segment",
    "matching.match_rows",
    "infotheory.capacity",
    "experiment.estimate_tv_distance",
)


class MissingSpanError(RuntimeError):
    """A traced function never ran where the benchmark expects it to."""


def _sample_counts(args, out):
    pair, seeds = out
    drawn = pair.d1.size + pair.d2.size + seeds.g1.size + seeds.g2.size
    return {"symbols": drawn}


def _replica_counts(args, out):
    return {"columns": args[0].shape[1]}


def _cross_counts(args, out):
    g1, g2 = args[0], args[1]
    return {"compares": g1.shape[0] * g1.shape[1] * g2.shape[1]}


def _match_counts(args, out):
    d1, segmented = args[0], args[1]
    return {
        "score_bytes": 8 * d1.shape[0] * segmented.d2.shape[0],
        "rows": out.num_rows,
        "matched": out.status_counts()["matched"],
    }


COUNTERS = {
    "model.sample_instance": _sample_counts,
    "replicas.detect_replicas": _replica_counts,
    "deletions.cross_hamming": _cross_counts,
    "matching.match_rows": _match_counts,
}


class Tracer:
    """Collects spans from every traced call while installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, trial, counts]
        self.trial_roots = []  # index of each trial's own span
        self.names = set()  # span names of the installed wrappers
        self._lock = threading.Lock()
        self._local = threading.local()

    def _open(self, name):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            index = len(self.spans)
            if name == TRIAL_SPAN:
                trial = len(self.trial_roots)
                self.trial_roots.append(index)
            else:
                trial = self.spans[stack[-1]][4] if stack else None
            self.spans.append([name, None, None, stack[-1] if stack else None, trial, {}])
        stack.append(index)
        return index

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        alloc = name == "matching.match_rows"

        def traced(*args, **kwargs):
            index = self._open(name)
            span = self.spans[index]
            if alloc:
                tracemalloc.start()
            try:
                span[1] = time.perf_counter()
                out = fn(*args, **kwargs)
                span[2] = time.perf_counter()
            finally:
                if span[2] is None:
                    span[2] = time.perf_counter()
                if alloc:
                    span[5]["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._local.stack.pop()
            if counter is not None:
                span[5].update(counter(args, out))
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every TRACED attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr in TRACED:
                module = importlib.import_module(f"dbalign.{module_name}")
                if not hasattr(module, attr):
                    raise MissingSpanError(f"dbalign.{module_name} has no {attr}")
                fn = getattr(module, attr)
                name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
                saved.append((module, attr, fn))
                self.names.add(name)
                setattr(module, attr, self._wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def by_trial(self):
        """Per trial, the spans recorded in it (the trial span first)."""
        trials = [[] for _ in self.trial_roots]
        for span in self.spans:
            if span[4] is not None:
                trials[span[4]].append(span)
        return trials

    def check_fired(self, optional=()):
        """Raise MissingSpanError unless every trial holds a span of every
        installed wrapper, apart from the `optional` ones."""
        if not self.trial_roots:
            raise MissingSpanError(f"{TRIAL_SPAN} never ran")
        for trial, spans in enumerate(self.by_trial()):
            missing = self.names - set(optional) - {s[0] for s in spans}
            if missing:
                raise MissingSpanError(
                    f"trial {trial}: no span for {', '.join(sorted(missing))}"
                )

    def _per_trial(self):
        """Per trial: busy seconds, calls and counts per span name, and the
        trial's own, scoring and self time."""
        out = []
        for root, spans in zip(self.trial_roots, self.by_trial()):
            busy, calls, counts = Counter(), Counter(), Counter()
            for name, t0, t1, _, _, c in spans:
                busy[name] += t1 - t0
                calls[name] += 1
                counts.update(c)
            _, start, end, *_ = self.spans[root]
            children = [s for s in spans if s[3] == root]
            pipeline_end = max(s[2] for s in children if s[0] == "matching.deanonymize")
            out.append(
                {
                    "busy": busy,
                    "calls": calls,
                    "counts": counts,
                    "trial_s": end - start,
                    "score_s": end - pipeline_end,
                    "self_s": (end - start) - sum(s[2] - s[1] for s in children),
                }
            )
        return out

    def layer_metrics(self):
        """Per-layer metrics: times as medians over trials, counts as means."""
        trials = self._per_trial()

        def median(f):
            return statistics.median(f(t) for t in trials)

        def mean(f):
            return statistics.fmean(f(t) for t in trials)

        def busy(name):
            return float(median(lambda t: t["busy"][name]))

        def count(key):
            return mean(lambda t: t["counts"][key])

        return {
            "matching.match_s": busy("matching.match_rows"),
            "matching.score_mb": count("score_bytes") / MIB,
            "matching.peak_alloc_mb": median(lambda t: t["counts"]["peak_alloc"]) / MIB,
            "matching.matched_frac": count("matched") / count("rows"),
            "deletions.detect_s": busy("deletions.detect_deletions"),
            "deletions.remaps_swept": mean(lambda t: t["calls"]["deletions.cross_hamming"]),
            "deletions.compares": count("compares"),
            "model.sample_s": busy("model.sample_instance"),
            "model.symbols_drawn": count("symbols"),
            "replicas.detect_s": busy("replicas.detect_replicas"),
            "replicas.columns_scanned": count("columns"),
            "estimation.estimate_s": busy("estimation.estimate_from_seeds"),
            "infotheory.capacity_s": busy("infotheory.capacity"),
            "infotheory.capacity_calls": mean(lambda t: t["calls"]["infotheory.capacity"]),
            "experiment.trial_s": median(lambda t: t["trial_s"]),
            "experiment.score_s": median(lambda t: t["score_s"]),
            "experiment.self_s": median(lambda t: t["self_s"]),
        }

    def largest_layer(self):
        """The layer span with the largest median busy time per trial."""
        trials = self._per_trial()
        return max(
            LAYER_SPANS, key=lambda name: statistics.median(t["busy"][name] for t in trials)
        )

    def to_records(self):
        keys = ("name", "start", "end", "parent", "trial", "counts")
        return [dict(zip(keys, span)) for span in self.spans]
