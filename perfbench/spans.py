"""Per-layer spans and counters, recorded from outside the program.

`install` wraps module-level functions of `apery_words` at every module
attribute that binds them, which is the name each caller looks them up
through: `evaluate.eval_segment` is reached via `evaluate`'s globals, while
`eval_wordsum`, `compile_spec`, `direct_sum` and `eval_const` are imported
by name into `fixtures` and `pipeline` and are wrapped there too.  Nothing
in the program is edited.

A span's self time is its duration minus the time covered by spans it
caused, so `eval_word` self time excludes `eval_segment` and cache writes,
and `direct_sum` self time excludes `_partial_sums` and `_extrapolate`.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from apery_words import constants, evaluate, fixtures, oracle, pipeline, series, trig, words

# per-layer metric name -> (unit, which way is better); BENCHMARK.json lists the same
PER_LAYER = {
    "evaluate.segment.s": ("s", "lower"),
    "evaluate.segment.calls": ("count", "lower"),
    "evaluate.segment.atom_steps": ("count", "lower"),
    "evaluate.segment.us_per_atom_step": ("us", "lower"),
    "evaluate.segment.memo_hit_ratio": ("ratio", "higher"),
    "evaluate.segment.memo_entries": ("count", "lower"),
    "evaluate.word.self_s": ("s", "lower"),
    "evaluate.word.calls": ("count", "lower"),
    "evaluate.word.cache_hit_ratio": ("ratio", "higher"),
    "evaluate.wordsum.self_s": ("s", "lower"),
    "evaluate.wordsum.calls": ("count", "lower"),
    "evaluate.wordsum.terms": ("count", "lower"),
    "evaluate.cache.load_s": ("s", "lower"),
    "evaluate.cache.records_loaded": ("count", "lower"),
    "evaluate.cache.puts": ("count", "lower"),
    "evaluate.cache.put_s": ("s", "lower"),
    "evaluate.cache.bytes_written": ("bytes", "lower"),
    "oracle.sweep.s": ("s", "lower"),
    "oracle.sweep.calls": ("count", "lower"),
    "oracle.sweep.indices": ("count", "lower"),
    "oracle.sweep.ns_per_index": ("ns", "lower"),
    "oracle.harmonic.s": ("s", "lower"),
    "oracle.harmonic.calls": ("count", "lower"),
    "oracle.harmonic.indices": ("count", "lower"),
    "oracle.extrap.s": ("s", "lower"),
    "oracle.extrap.calls": ("count", "lower"),
    "oracle.direct.self_s": ("s", "lower"),
    "trig.compile.s": ("s", "lower"),
    "trig.compile.calls": ("count", "lower"),
    "words.cov.s": ("s", "lower"),
    "words.cov.terms_out": ("count", "lower"),
    "words.cov.unique_words": ("count", "lower"),
    "pipeline.compile.memo_hit_ratio": ("ratio", "higher"),
    "constants.eval.s": ("s", "lower"),
    "constants.eval.calls": ("count", "lower"),
    "fixtures.load.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# counts that must repeat exactly between two traced runs of one workload
EXACT_COUNTS = (
    "evaluate.segment.calls",
    "evaluate.segment.atom_steps",
    "words.cov.terms_out",
    "oracle.sweep.indices",
    "oracle.harmonic.indices",
    "evaluate.cache.puts",
    "evaluate.cache.records_loaded",
)


class Tracer:
    """Span totals, self times, call counts and layer counters of one pass."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.unique_words: set = set()
        self._children: list[float] = []

    def wrap(self, name, fn, before=None, after=None):
        """`fn` recorded as span `name`; `before(args, kwargs)` runs ahead of
        the call and its result is handed to `after(args, kwargs, result,
        state)`.  The hooks' own time counts as child time of the enclosing
        span, so it is in no span's self time."""

        def traced(*args, **kwargs):
            state = self._hook(before, args, kwargs) if before else None
            self._children.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                self.total[name] += elapsed
                self.self_s[name] += elapsed - children
                self.calls[name] += 1
            if after:
                self._hook(after, args, kwargs, result, state)
            return result

        return traced

    def _hook(self, hook, *args):
        t0 = time.perf_counter()
        try:
            return hook(*args)
        finally:
            if self._children:
                self._children[-1] += time.perf_counter() - t0

    def metrics(self, memo_entries: int, bytes_written: int) -> dict[str, float]:
        t, s, n, c = self.total, self.self_s, self.calls, self.counts
        lookups = c["segment.lookups"]
        sweep_indices = c["sweep.indices"]
        word_lookups = c["word.hits"] + c["word.misses"]
        return {
            "evaluate.segment.s": t["segment"],
            "evaluate.segment.calls": n["segment"],
            "evaluate.segment.atom_steps": c["atom_steps"],
            "evaluate.segment.us_per_atom_step": _ratio(t["segment"] * 1e6, c["atom_steps"]),
            "evaluate.segment.memo_hit_ratio": 1 - _ratio(n["segment"], lookups) if lookups else 0.0,
            "evaluate.segment.memo_entries": memo_entries,
            "evaluate.word.self_s": s["word"],
            "evaluate.word.calls": n["word"],
            "evaluate.word.cache_hit_ratio": _ratio(c["word.hits"], word_lookups),
            "evaluate.wordsum.self_s": s["wordsum"],
            "evaluate.wordsum.calls": n["wordsum"],
            "evaluate.wordsum.terms": c["wordsum.terms"],
            "evaluate.cache.load_s": t["cache.load"],
            "evaluate.cache.records_loaded": c["records_loaded"],
            "evaluate.cache.puts": n["cache.put"],
            "evaluate.cache.put_s": t["cache.put"],
            "evaluate.cache.bytes_written": bytes_written,
            "oracle.sweep.s": t["sweep"],
            "oracle.sweep.calls": n["sweep"],
            "oracle.sweep.indices": sweep_indices,
            "oracle.sweep.ns_per_index": _ratio(t["sweep"] * 1e9, sweep_indices),
            "oracle.harmonic.s": t["harmonic"],
            "oracle.harmonic.calls": n["harmonic"],
            "oracle.harmonic.indices": c["harmonic.indices"],
            "oracle.extrap.s": t["extrap"],
            "oracle.extrap.calls": n["extrap"],
            "oracle.direct.self_s": s["direct"],
            "trig.compile.s": t["trig"],
            "trig.compile.calls": n["trig"],
            "words.cov.s": t["cov"],
            "words.cov.terms_out": c["cov.terms_out"],
            "words.cov.unique_words": len(self.unique_words),
            "pipeline.compile.memo_hit_ratio": _ratio(c["compile.hits"], n["compile"]),
            "constants.eval.s": t["const"],
            "constants.eval.calls": n["const"],
            "fixtures.load.s": t["load"],
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _patch(original, wrapper) -> None:
    """Rebind `original` to `wrapper` at every apery_words module attribute."""
    bound = 0
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] != "apery_words":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                bound += 1
    if not bound:
        raise RuntimeError(f"{original.__qualname__} is bound nowhere in apery_words")


def install(tracer: Tracer) -> None:
    """Wrap every traced layer boundary; call once, before the timed phase."""
    c = tracer.counts

    def segment_after(args, kwargs, result, state):
        c["atom_steps"] += len(args[0].atoms)

    # every workload hands eval_word a cache, so a miss is exactly a call
    # that makes a cache.put; an empty word touches neither cache nor memo
    def word_before(args, kwargs):
        return tracer.calls["cache.put"]

    def word_after(args, kwargs, result, puts_before):
        if tracer.calls["cache.put"] > puts_before:
            c["word.misses"] += 1
            c["segment.lookups"] += 2 * len(args[0])
        elif args[0]:
            c["word.hits"] += 1

    def wordsum_before(args, kwargs):
        c["wordsum.terms"] += len(args[0].terms)

    def cache_after(args, kwargs, cache, state):
        c["records_loaded"] += len(cache._mem)
        cache.put = tracer.wrap("cache.put", cache.put)

    def sweep_after(args, kwargs, result, state):
        c["sweep.indices"] += result[2]

    def harmonic_after(args, kwargs, result, state):
        c["harmonic.indices"] += result.terms_used

    def cov_after(args, kwargs, result, state):
        c["cov.terms_out"] += len(result.terms)
        tracer.unique_words.update(result.terms)

    def compile_before(args, kwargs):
        if series.canonical_key(args[0]) in pipeline._compile_memo:
            c["compile.hits"] += 1

    layers = [
        ("segment", evaluate.eval_segment, None, segment_after),
        ("word", evaluate.eval_word, word_before, word_after),
        ("wordsum", evaluate.eval_wordsum, wordsum_before, None),
        ("cache.load", evaluate.ValueCache, None, cache_after),
        ("sweep", oracle._partial_sums, None, sweep_after),
        ("harmonic", oracle.direct_harmonic_sum, None, harmonic_after),
        ("extrap", oracle._extrapolate, None, None),
        ("direct", oracle.direct_sum, None, None),
        ("trig", trig.compile_spec_to_trig, None, None),
        ("cov", words.cov, None, cov_after),
        ("compile", pipeline.compile_spec, compile_before, None),
        ("const", constants.eval_const, None, None),
        ("load", fixtures.load_fixtures, None, None),
    ]
    for name, fn, before, after in layers:
        _patch(fn, tracer.wrap(name, fn, before, after))
