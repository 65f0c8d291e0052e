"""Span tracing applied from outside the package.

The benchmark may not edit ``src/``, so per-layer numbers come from
wrapping the public callables at each layer boundary for the duration
of one traced run.  ``TARGETS`` is the whole wrapper table; ``install``
patches every entry (at the defining module or class *and* at every
``repro`` module, and the main module, that imported the name),
``uninstall`` restores them.
A target that no longer resolves raises, so a refactor cannot silently
drop a layer from the trace.

Spans are ``[name, start, end, parent, count]`` lists kept in memory;
the caller writes them out when the run ends.  A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Span index fields.
NAME, START, END, PARENT, COUNT = range(5)


def _length(_args, result):
    return len(result)


def _rows_arg(args, _result):
    return len(args[-1])  # record_class / merge_class / store_class rows


def _batch_rows(args, _result):
    return sum(len(rows) for _axis, _slot, rows in args[1])


def _hit(_args, result):
    return 0 if result is None else 1


def _shards(_args, result):
    return len(result[0])


def _payload(args, _result):
    return len(args[0])


#: (span name, "module:attr" or "module:Class.method", count function).
#: The count function maps ``(args, result)`` to the work the call did
#: (rows, bytes, experiments); ``None`` counts nothing.
TARGETS = (
    ("golden.record", "repro.campaign.golden:record_golden", None),
    ("faultspace.partition",
     "repro.faultspace.domain:MemoryDomain.build_partition", None),
    ("faultspace.partition",
     "repro.faultspace.domain:RegisterDomain.build_partition", None),
    ("faultspace.slice", "repro.faultspace.slicing:backward_slice", None),
    ("faultspace.sections",
     "repro.faultspace.sections:build_section_map", None),
    ("engine.plan", "repro.engine.plan:plan_tiers", None),
    ("engine.compile", "repro.engine.compiled:compile_program", None),
    ("executor.build",
     "repro.campaign.experiment:ExecutorConfig.build", None),
    ("executor.run_many",
     "repro.campaign.experiment:ExperimentExecutor.run_many", _length),
    ("executor.run_many",
     "repro.campaign.experiment:BatchExperimentExecutor.run_many", _length),
    ("runner.scan", "repro.campaign.runner:run_full_scan", None),
    ("parallel.scan",
     "repro.campaign.parallel:ParallelCampaign.run_full_scan", None),
    ("parallel.plan", "repro.campaign.parallel:plan_class_shards", _shards),
    ("dist.scan",
     "repro.campaign.dist.coordinator:run_distributed_scan", None),
    ("dist.encode", "repro.campaign.dist.protocol:encode_frame", _length),
    ("dist.decode", "repro.campaign.dist.protocol:decode_frame", _payload),
    ("dist.lease",
     "repro.campaign.journal:CampaignJournal.record_lease", None),
    ("journal.open", "repro.campaign.journal:open_campaign", None),
    ("journal.write",
     "repro.campaign.journal:CampaignJournal.record_class", _rows_arg),
    ("journal.write",
     "repro.campaign.journal:CampaignJournal.record_classes", _batch_rows),
    ("journal.write",
     "repro.campaign.journal:CampaignJournal.merge_class", _rows_arg),
    ("journal.read",
     "repro.campaign.journal:CampaignJournal.completed_classes", _length),
    ("journal.read",
     "repro.campaign.journal:ExperimentJournal.section_rows", _length),
    ("journal.close", "repro.campaign.journal:CampaignJournal.close", None),
    ("compose.lookup",
     "repro.campaign.compose:SectionComposer.compose_class", _hit),
    ("compose.store",
     "repro.campaign.compose:SectionComposer.store_class", _rows_arg),
    ("database.csv",
     "repro.campaign.database:export_class_results_csv", None),
    ("database.csv", "repro.metrics.comparison:export_comparison_csv", None),
    ("metrics.report", "repro.metrics.comparison:comparison_report", None),
)


class Tracer:
    """Records spans around the callables in :data:`TARGETS`."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _wrap(self, name, func, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, result)
            return result

        return traced

    # -- patching -------------------------------------------------------------

    def install(self):
        for name, target, count in TARGETS:
            module_name, _, path = target.partition(":")
            module = importlib.import_module(module_name)
            owner, _, attr = path.rpartition(".")
            try:
                holder = getattr(module, owner) if owner else module
                # vars(), not getattr: a method inherited from a base
                # class must be patched on the class that defines it.
                original = vars(holder)[attr]
            except (AttributeError, KeyError):
                raise LookupError(
                    f"trace target {target!r} ({name}) no longer exists; "
                    f"update benchmarks/e2e/trace.py so the layer is not "
                    f"dropped from the trace") from None
            wrapper = self._wrap(name, original, count)
            holders = [holder]
            if not owner:
                # ``from .x import f`` binds f in the importer: patch
                # every repro module, and the benchmark's own main
                # module, that holds the same function.
                holders += [m for key, m in list(sys.modules.items())
                            if m is not module and m is not None
                            and key.startswith(("repro", "__main__"))
                            and vars(m).get(attr) is original]
            for place in holders:
                self._patched.append((place, attr, vars(place)[attr]))
                setattr(place, attr, wrapper)

    def uninstall(self):
        for place, attr, original in reversed(self._patched):
            setattr(place, attr, original)
        self._patched.clear()

    # -- reduction ------------------------------------------------------------

    def totals(self, windows=((0.0, float("inf")),)):
        """Per span name: calls, total/self seconds, summed counts and
        spans recorded, of the spans that started inside a window.

        A span nested in one of the same name (``merge_class`` calls
        ``record_class``; both are ``journal.write``) is the same work
        seen twice: it adds to ``spans`` and to the self time only.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        nested = [False] * len(spans)
        for index, span in enumerate(spans):
            parent = span[PARENT]
            if parent >= 0:
                child_time[parent] += span[END] - span[START]
            while parent >= 0 and not nested[index]:
                nested[index] = spans[parent][NAME] == span[NAME]
                parent = spans[parent][PARENT]
        out: dict[str, dict] = {}
        for index, span in enumerate(spans):
            if not any(since <= span[START] <= until
                       for since, until in windows):
                continue
            entry = out.setdefault(span[NAME], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0,
                "spans": 0})
            duration = span[END] - span[START]
            entry["spans"] += 1
            entry["self_s"] += duration - child_time[index]
            if not nested[index]:
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["count"] += span[COUNT]
        return out

    def span_cost(self, calls: int = 20000, blocks: int = 7) -> float:
        """Seconds one span adds to the call it wraps, measured here and
        now: blocks of calls of the same small function, bare and
        wrapped in turn, each side costing its fastest block."""
        def bare(row):
            return row

        wrapped = Tracer()._wrap("calibration", bare, _length)
        row = (None,)
        best = {bare: float("inf"), wrapped: float("inf")}
        for _ in range(blocks):
            for func in (bare, wrapped):
                start = time.perf_counter()
                for _ in range(calls):
                    func(row)
                best[func] = min(best[func], time.perf_counter() - start)
        return (best[wrapped] - best[bare]) / calls

    def covered(self, since: float, until: float) -> float:
        """Seconds of ``[since, until]`` spent inside root spans."""
        return sum(min(span[END], until) - max(span[START], since)
                   for span in self.spans
                   if span[PARENT] < 0 and span[START] < until
                   and span[END] > since)

    def write_jsonl(self, path):
        with open(path, "w") as handle:
            for index, (name, start, end, parent, count) in \
                    enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "count": count}) + "\n")
