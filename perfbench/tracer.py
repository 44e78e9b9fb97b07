"""Span tracer installed from outside the program.

The benchmark's traced run replaces public functions of the program with
thin wrappers that record a span (name, start, end, parent, request id)
per call, or only bump a counter where a call is too hot and too short
for a span to mean anything.  Each name is patched where its caller
looks it up: ``run_cps`` is imported by value into both
``repro.core.locat`` and ``repro.core.iicp``, so both module attributes
are replaced.  Spans stay in memory and are written once, when the run
ends.  Nothing here runs in an untraced run.
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager


SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request_id", "value")


class Tracer:
    """In-memory spans and counters, safe to use from many threads."""

    def __init__(self, process: str = "bench", log_counts: bool = False):
        self.process = process
        #: Each span is ``[id, name, start, end, parent, request_id, value]``;
        #: ``value`` is an optional count taken from the call's result.
        self.spans: list[list] = []
        self.counts: collections.Counter = collections.Counter()
        #: With ``log_counts``, every count also as ``[time, key, n]``, so
        #: a process that cannot be told when a measured window starts
        #: (the server) can have its counts cut to that window later.
        self.count_log: list[list] | None = [] if log_counts else None
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._counts_lock = threading.Lock()

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request_id(self):
        return getattr(self._local, "request_id", None)

    @request_id.setter
    def request_id(self, value) -> None:
        self._local.request_id = value

    def reset_counts(self) -> None:
        with self._counts_lock:
            self.counts.clear()

    def save_counts(self) -> collections.Counter:
        with self._counts_lock:
            return collections.Counter(self.counts)

    def restore_counts(self, saved: collections.Counter) -> None:
        with self._counts_lock:
            self.counts = saved

    def count(self, key: str, n: int = 1) -> None:
        with self._counts_lock:
            self.counts[key] += n
            if self.count_log is not None:
                self.count_log.append([time.perf_counter(), key, n])

    @contextmanager
    def span(self, name: str):
        """Record one span; the yielded record's name and value (items 1
        and 6) may be rewritten before the span closes."""
        stack = self._stack()
        record = [next(self._ids), name, 0.0, 0.0, stack[-1] if stack else None,
                  self.request_id, None]
        stack.append(record[0])
        record[2] = time.perf_counter()
        try:
            yield record
        finally:
            record[3] = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    # ------------------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, rename=None, value=None, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``rename(result)`` may pick the span name from the result,
        ``value(result)`` stores a count in the span, and
        ``after(result, args, kwargs)`` records counters from it.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if rename is not None:
                    record[1] = rename(result)
                if value is not None:
                    record[6] = value(result)
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(owner, attr, wrapper)

    def wrap_count(self, owner, attr: str, key, before=None) -> None:
        """Replace ``owner.attr`` by a wrapper that only counts calls;
        ``key`` may be a function of the result."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = original(*args, **kwargs)
            self.count(key(result) if callable(key) else key)
            return result

        setattr(owner, attr, wrapper)

    # ------------------------------------------------------------------
    def dump(self) -> dict:
        return {
            "process": self.process,
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
            "count_log": self.count_log,
        }

    def write_spans(self, path: str, extra: list[dict] | None = None) -> None:
        """Write every span of this tracer (and of ``extra`` dumps from
        other processes) as one JSON line each."""
        dumps = [self.dump(), *(extra or [])]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as handle:
            for dump in dumps:
                for span in dump["spans"]:
                    handle.write(json.dumps(
                        {"process": dump["process"], **dict(zip(SPAN_FIELDS, span))}
                    ) + "\n")


def install_model_layers(tracer: Tracer) -> None:
    """Wrap the tuning layers: simulator, QCSA, IICP, DAGP, MCMC,
    acquisition search, replay racing and the online controller."""
    import repro.bo.gp as gp
    import repro.bo.optimize as optimize
    import repro.core.dagp as dagp
    import repro.core.iicp as iicp
    import repro.core.locat as locat
    import repro.core.online as online
    import repro.core.tuner as tuner
    import repro.sparksim.engine as engine
    import repro.surrogate.incremental as incremental

    tracer.wrap(engine.SparkSQLSimulator, "run", "sparksim.run")
    tracer.wrap(locat, "analyze_samples", "qcsa.analyze")
    for module in (locat, iicp):
        tracer.wrap(module, "run_cps", "iicp.cps")
        tracer.wrap(module, "run_cpe", "iicp.cpe")
    tracer.wrap(dagp.DatasizeAwareGP, "fit", "dagp.fit")
    tracer.wrap(dagp.DatasizeAwareGP, "extend", "dagp.extend")
    tracer.wrap(dagp, "slice_sample_chain", "mcmc.chain")
    tracer.wrap_count(gp.GaussianProcess, "log_marginal_likelihood", "mcmc.lml_evals")
    tracer.wrap_count(
        incremental.LMLCache, "get",
        lambda value: "lml_cache.misses" if value is None else "lml_cache.hits",
    )

    def count_points(args, kwargs):
        # The score callable is the first argument: count every
        # candidate row the acquisition search asks the surrogate for.
        score = args[0]

        def counted(points):
            tracer.count("acq.points_scored", len(points))
            return score(points)

        return (counted, *args[1:]), kwargs

    for module in (tuner, optimize):
        tracer.wrap_count(module, "maximize_acquisition", "acq.calls", before=count_points)
        tracer.wrap(module, "maximize_acquisition", "acq.maximize")

    def race_counts(outcome, args, kwargs):
        entrants = len(args[1] if len(args) > 1 else kwargs["candidates"])
        tracer.count("race.entrants", entrants)
        tracer.count("race.survivors", entrants - len(outcome.eliminated))

    tracer.wrap(locat, "race", "race.run", after=race_counts)
    tracer.wrap(
        online.OnlineController, "observe", "online.observe",
        rename=lambda decision: "online.retune" if decision.retuned else "online.decide",
    )
    tracer.wrap(locat.LOCAT, "predict_log_duration", "online.predict")
    tracer.wrap(locat.LOCAT, "adapt", "adapt.session")
    tracer.wrap(locat.LOCAT, "tune", "locat.tune")


def install_service_layers(tracer: Tracer) -> None:
    """Wrap the service layers: scheduler, registry and store.

    Scheduler jobs run on worker threads, so the submit wrapper hands
    the job id to the job's thread as the request id of every span the
    job records; the benchmark's client tags its round-trip span
    (``client.observe``) with the same id.
    """
    import repro.service.registry as registry
    import repro.service.scheduler as scheduler
    import repro.service.store as store

    original_submit = scheduler.JobScheduler.submit

    @functools.wraps(original_submit)
    def submit(self, app_id, fn, *args, **kwargs):
        ready = threading.Event()
        holder: dict = {}

        def job():
            ready.wait(1.0)
            tracer.request_id = holder.get("job_id")
            try:
                return fn()
            finally:
                tracer.request_id = None

        submitted = original_submit(self, app_id, job, *args, **kwargs)
        holder["job_id"] = submitted.job_id
        ready.set()
        return submitted

    scheduler.JobScheduler.submit = submit
    tracer.wrap(registry.TuningRegistry, "observe", "registry.observe")
    tracer.wrap(store.HistoryStore, "append_many", "store.append")
    tracer.wrap(store.HistoryStore, "save_deployment", "store.save_deployment")
    tracer.wrap(store.HistoryStore, "observations", "store.read", value=len)
    # store.py calls os.fsync through the os module at call time.
    tracer.wrap(os, "fsync", "store.fsync")
