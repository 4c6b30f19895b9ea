"""Spans around the calls the CLI makes into each layer, installed from outside.

:class:`Tracer` replaces the module and class attributes that
``decodelab.cli`` calls through with wrappers that record one span (name,
start, end, parent) per call, kept in memory.  Nothing in the program
changes: uninstalling restores the original attributes.  A layer's self
time is the sum of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from pathlib import Path


def targets():
    """(span name, owner, attribute) for every traced call boundary."""
    from decodelab import autoregress, cli, framesim, ngram, probcore, sampler

    return [
        ("probcore.softmax", sampler, "softmax"),
        ("probcore.logits_from_masses", ngram, "logits_from_masses"),
        ("probcore.logits_from_masses", framesim, "logits_from_masses"),
        ("probcore.entropy", cli, "entropy"),
        ("probcore.ProbabilityDistribution.validated", probcore.ProbabilityDistribution, "__post_init__"),
        ("sampler.RandomStream", sampler.RandomStream, "__init__"),
        ("sampler.run_pipeline", autoregress, "run_pipeline"),
        ("sampler.run_pipeline", framesim, "run_pipeline"),
        ("sampler.sort_descending", sampler, "sort_descending"),
        ("sampler.top_k_filter", sampler, "top_k_filter"),
        ("sampler.top_p_filter", sampler, "top_p_filter"),
        ("sampler.min_p_filter", sampler, "min_p_filter"),
        ("sampler.SampleTrace.to_json_dict", sampler.SampleTrace, "to_json_dict"),
        ("ngram.tokenize", cli, "tokenize"),
        ("ngram.train_ngram", cli, "train_ngram"),
        ("ngram.NGramModel.save", ngram.NGramModel, "save"),
        ("ngram.NGramModel.load", ngram.NGramModel, "load"),
        ("ngram.NGramModel.logits_for", ngram.NGramModel, "logits_for"),
        ("ngram.NGramModel.conditional", ngram.NGramModel, "conditional"),
        ("autoregress.generate", cli, "generate"),
        ("autoregress.ContextBuffer.push", autoregress.ContextBuffer, "push"),
        ("framesim.predict_frame", framesim, "predict_frame"),
        ("framesim.WorldModel.conditional", framesim.WorldModel, "conditional"),
        ("framesim.rollout", framesim, "rollout"),
        ("framesim.frame_to_pgm", cli, "frame_to_pgm"),
        ("cli.cmd_train", cli, "cmd_train"),
        ("cli.cmd_generate", cli, "cmd_generate"),
        ("cli.cmd_sweep", cli, "cmd_sweep"),
        ("cli.cmd_simulate", cli, "cmd_simulate"),
    ]


def span_names() -> list[str]:
    return list(dict.fromkeys(name for name, _, _ in targets()))


class Tracer:
    """Records spans for the calls in :func:`targets` while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.truncations = 0
        self.noop_truncations = 0
        self.ngram_contexts: set = set()
        self.ngram_calls = 0
        self.world_contexts: set = set()
        self.world_calls = 0

    # -- observers: counts taken at the same boundaries as the spans --------

    def _truncation(self, args, result) -> None:
        self.truncations += 1
        if len(result) == len(args[0]):
            self.noop_truncations += 1

    def _ngram_context(self, args, result) -> None:
        model, context = args[0], args[1]
        self.ngram_calls += 1
        self.ngram_contexts.add(tuple(context[len(context) - (model.order - 1):]) if model.order > 1 else ())

    def _world_context(self, args, result) -> None:
        self.world_calls += 1
        self.world_contexts.add((args[1], tuple(sorted(args[2]))))

    def _wrap(self, name: str, fn, observe):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (nid, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        observers = {
            "sampler.top_k_filter": self._truncation,
            "sampler.top_p_filter": self._truncation,
            "sampler.min_p_filter": self._truncation,
            "ngram.NGramModel.logits_for": self._ngram_context,
            "framesim.WorldModel.conditional": self._world_context,
        }
        for name, owner, attr in targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._wrap(name, raw.__func__, observers.get(name))))
            else:
                setattr(owner, attr, self._wrap(name, raw, observers.get(name)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the ratio counters."""
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for nid, start, end, parent in self.spans:
            d = end - start
            calls[nid] += 1
            self_s[nid] += d
            if parent >= 0:
                self_s[self.spans[parent][0]] -= d
        out = {}
        for name in span_names():
            nid = self.names.index(name) if name in self.names else -1
            out[f"{name}.calls"] = calls.get(nid, 0)
            out[f"{name}.self_s"] = self_s.get(nid, 0.0)
        out["sampler.noop_stage_ratio"] = self.noop_truncations / self.truncations if self.truncations else 0.0
        out["ngram.logits_for.distinct_ratio"] = (
            len(self.ngram_contexts) / self.ngram_calls if self.ngram_calls else 0.0)
        out["framesim.conditional.distinct_ratio"] = (
            len(self.world_contexts) / self.world_calls if self.world_calls else 0.0)
        return out

    def dump(self, path: Path) -> None:
        """Write every span once: name index, start and end (seconds from the
        first span) and parent span index (-1 for a root)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[nid, round(s - t0, 9), round(e - t0, 9), parent] for nid, s, e, parent in self.spans]
        path.write_text(json.dumps({"names": self.names, "fields": ["name", "start_s", "end_s", "parent"],
                                    "spans": rows}, separators=(",", ":")) + "\n", encoding="utf-8")
