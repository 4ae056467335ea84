"""Layer timing from outside the program, for the traced benchmark run.

``traced(tracer)`` swaps timing wrappers in for the module attributes
through which turlex's layers call each other, and puts every original
back on exit. Stemming is reached through ``LexiconResources.stemmer``,
so it is timed by handing the pipeline a proxy stemmer instead.

Spans are aggregated in memory per (name, parent) and per thread: a
build with more than one worker runs its map phase on pool threads, and
a shared table would lose updates. A span's self time is its duration minus the time its child
spans cover. Under threads, durations include waits for the interpreter
lock.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

import turlex.corrector
import turlex.pipeline
from turlex.ngrams import NgramTable

#: (owner, attribute, span name) for every wrapped callable.
TARGETS = (
    (turlex.pipeline, "tokenize", "tokenizer.tokenize"),
    (turlex.pipeline, "remove_stopwords", "tokenizer.remove_stopwords"),
    (turlex.pipeline, "correct_word", "corrector.correct_word"),
    (turlex.pipeline, "extract_ngrams", "ngrams.extract_ngrams"),
    (turlex.pipeline, "verify_partition", "ngrams.verify_partition"),
    (turlex.corrector, "diacritic_correct", "corrector.diacritic_correct"),
    (turlex.corrector, "best_matches", "similarity.best_matches"),
    (turlex.corrector, "collapse_repeats", "tokenizer.collapse_repeats"),
    (NgramTable, "accumulate", "ngrams.accumulate"),
    (NgramTable, "merge", "ngrams.merge"),
    (NgramTable, "exclusive", "ngrams.exclusive"),
    (NgramTable, "shared", "ngrams.shared"),
)

STEM_SPAN = "resources.stem"


class _ThreadState:
    def __init__(self) -> None:
        self.stack: list[str] = []
        self.child_time: list[float] = []
        self.spans: dict[tuple[str, str | None], list] = {}  # -> [calls, seconds, child seconds]
        self.counts: Counter = Counter()
        self.seen: dict[str, set] = {}


def _observe(name: str, state: _ThreadState, args: tuple, result) -> None:
    """Counts beyond calls and time, taken from a span's arguments and result."""
    if name in ("corrector.correct_word", STEM_SPAN):
        state.seen.setdefault(name, set()).add(args[0])
    if name == "corrector.correct_word":
        state.counts[f"corrector.method.{result.method.value}"] += 1
    elif name in ("similarity.best_matches", "corrector.diacritic_correct"):
        state.counts[f"{name}.hits"] += bool(result)
    elif name == "tokenizer.remove_stopwords":
        state.counts[f"{name}.dropped"] += len(args[0]) - len(result)


class Tracer:
    """In-memory span aggregates, one table per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def wrap(self, name: str, fn):
        @wraps(fn)
        def timed(*args, **kwargs):
            state = self._state()
            parent = state.stack[-1] if state.stack else None
            state.stack.append(name)
            state.child_time.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                state.stack.pop()
                child = state.child_time.pop()
                if state.child_time:
                    state.child_time[-1] += elapsed
                entry = state.spans.get((name, parent))
                if entry is None:
                    entry = state.spans[(name, parent)] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += child
            _observe(name, state, args, result)
            return result

        return timed

    def spans(self) -> dict[tuple[str, str | None], tuple[int, float, float]]:
        """(name, parent) -> (calls, seconds, self seconds), over all threads."""
        merged: dict[tuple[str, str | None], list] = {}
        for state in self._states:
            for key, (calls, seconds, child) in state.spans.items():
                entry = merged.setdefault(key, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += seconds
                entry[2] += seconds - child
        return {key: tuple(entry) for key, entry in merged.items()}

    def counts(self) -> Counter:
        total: Counter = Counter()
        seen: dict[str, set] = {}
        for state in self._states:
            total.update(state.counts)
            for name, values in state.seen.items():
                seen.setdefault(name, set()).update(values)
        for name, values in seen.items():
            total[f"{name}.distinct"] = len(values)
        return total


class _TimedStemmer:
    """Satisfies turlex's Stemmer protocol; times the wrapped stemmer."""

    def __init__(self, inner, tracer: Tracer):
        self.stem = tracer.wrap(STEM_SPAN, inner.stem)


def traced_resources(resources, tracer: Tracer):
    """A copy of resources whose stemmer records spans into tracer."""
    return dataclasses.replace(resources, stemmer=_TimedStemmer(resources.stemmer, tracer))


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _ in TARGETS]
    try:
        for (owner, attr, name), (_, _, original) in zip(TARGETS, originals):
            setattr(owner, attr, tracer.wrap(name, original))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
