"""In-memory spans around calls into mtstreams' public functions.

A :class:`Tracer` replaces each target function (or method) with a wrapper
that records one span per call: name, layer, start and end
(``time.perf_counter_ns``), the enclosing span and a few labels. The
wrapper is installed in every loaded ``mtstreams`` module that holds a
reference to the original, so ``from x import f`` call sites are covered.
Spans stay in memory until :meth:`Tracer.dump` writes them as JSON lines.

Nothing in the package is edited: the spans sit at the boundaries the
benchmark calls through.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute path, labels taken from the call's positional args)
TARGETS = (
    ("mtstreams.mt19937", "init_genrand", None),
    ("mtstreams.mt19937", "twist", None),
    ("mtstreams.mt19937", "advance", lambda a: {"n": a[1]}),
    ("mtstreams.mt19937", "MtStream.take", lambda a: {"words": a[1]}),
    ("mtstreams.statusfile", "serialize_status", None),
    ("mtstreams.statusfile", "parse_status", None),
    ("mtstreams.statusfile", "save_status", None),
    ("mtstreams.statusfile", "load_status", None),
    ("mtstreams.statusfile", "file_sha256", None),
    ("mtstreams.statusfile", "verify_sets", None),
    ("mtstreams.partition", "generate_indexed", None),
    ("mtstreams.partition", "generate_random_spacing", None),
    ("mtstreams.partition", "generate_sequence_splitting", None),
    ("mtstreams.partition", "write_status_set", None),
    ("mtstreams.stats.walks", "h_null", lambda a: {"steps": a[0]}),
    ("mtstreams.stats.walks", "m_null", lambda a: {"steps": a[0]}),
    ("mtstreams.stats.walks", "r_null", lambda a: {"steps": a[0]}),
    ("mtstreams.stats.walks", "walk_statistics", lambda a: {"steps": a[2]}),
    ("mtstreams.stats.complexity", "berlekamp_massey", None),
    ("mtstreams.stats.complexity", "linear_complexity_pvalue", None),
    ("mtstreams.stats.stream", "StreamView.take_uniforms", None),
    ("mtstreams.stats.stream", "StreamView.take_words", None),
    ("mtstreams.stats.stream", "StreamView.take_bits", None),
    ("mtstreams.stats.stream", "StreamView.take_word_bits", None),
    ("mtstreams.stats.families", "run_test", lambda a: {"test": a[0].id, "mode": a[1].mode.value}),
    ("mtstreams.campaign", "load_status_entries", None),
    ("mtstreams.campaign", "run_campaign", lambda a: {"jobs": a[1].jobs}),
    ("mtstreams.campaign", "run_battery_on_status", lambda a: {"mode": a[1]}),
    ("mtstreams.campaign", "write_results_jsonl", None),
    ("mtstreams.campaign", "read_results_jsonl", None),
    ("mtstreams.campaign", "build_registry", None),
    ("mtstreams.campaign", "write_registry", None),
    ("mtstreams.reports", "render_report", lambda a: {"format": a[2]}),
)


def layer_of(module: str) -> str:
    """'mtstreams.stats.walks' -> 'stats.walks'."""
    return module.split(".", 1)[1]


class Tracer:
    """Span recorder for one process of a traced run."""

    def __init__(self, run_id: str, process: str) -> None:
        self.run_id = run_id
        self.process = process
        self.spans: list[list] = []  # [name, layer, start_ns, end_ns, parent, attrs]
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, time.perf_counter_ns(), None, parent, attrs]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter_ns()
            self._stack.pop()

    def _wrap(self, fn, name: str, layer: str, labels):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = labels(args) if labels else {}
            with self.span(name, layer, **attrs):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> list[str]:
        """Wrap every target wherever a loaded mtstreams module refers to it.

        Returns the targets that no longer exist; their metrics read 0.
        """
        missing = []
        for module_name, path, labels in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(original, f"{layer_of(module_name)}.{path}", layer_of(module_name), labels)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name.startswith("mtstreams") and mod is not None:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
        return missing

    def dump(self, path) -> None:
        with open(path, "a", encoding="ascii") as fh:
            for i, (name, layer, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "run": self.run_id,
                            "process": self.process,
                            "id": i,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start_ns": start,
                            "end_ns": end,
                            "attrs": attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def load_spans(path) -> list[dict]:
    with open(path, encoding="ascii") as fh:
        return [json.loads(line) for line in fh]


def self_times(spans: list[dict]) -> list[float]:
    """Per span: its duration minus the durations of its direct children (s).

    Spans of one process nest strictly (one thread), so children never
    overlap each other or outlive their parent.
    """
    child_total: dict = {}
    for s in spans:
        if s["parent"] is not None:
            k = (s["process"], s["parent"])
            child_total[k] = child_total.get(k, 0) + s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - child_total.get((s["process"], s["id"]), 0)) / 1e9 for s in spans]
