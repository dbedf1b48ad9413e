"""Outside-in tracer for the stpca package.

The program itself carries no spans. This module wraps every public function
of every stpca module from outside, in *every* module namespace that holds a
reference to it: `from .model import forward` leaves copies of `forward` in
`training`, `metrics` and the package `__init__`, and a wrapper installed in
`model` alone would be bypassed by those calls.

Spans (name, start, end, parent span, run id) stay in memory and are written
once, when the run ends. Per-call observers add counters measured where the
work happens (windows, cells, bytes, clipped steps, skipped batches).
"""

import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import time
import warnings
from collections import defaultdict

SKIPPED_BATCH_MESSAGE = "batch skipped"
# position of the file path among each checkpoint function's arguments
_PATH_ARG = {"serialize.save_model": 2, "serialize.save_projection": 1,
             "serialize.load_model": 0, "serialize.load_projection": 0}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _span_name(module, fn_name, args, kwargs):
    """Span name `module.function`, refined where one function has two roles."""
    if module == "cli":
        return f"cli.{fn_name.removeprefix('cmd_')}"
    name = f"{module}.{fn_name}"
    if name == "model.forward":
        return name + (".train" if _arg(args, kwargs, 5, "cache", False) else ".infer")
    if name == "transfer.cross_year_eval":
        return f"{name}.{_arg(args, kwargs, 4, 'plan').strategy}"
    if name == "pipeline.train_run":
        return f"{name}.{_arg(args, kwargs, 3, 'strategy', 'adaptive')}"
    return name


def _observe(tracer, name, args, kwargs, result):
    """Counters read from a call's arguments and result."""
    add = tracer.add
    if name == "model.forward.infer":
        add(name + ".windows", _arg(args, kwargs, 2, "x").shape[0])
    elif name == "metrics.evaluate":
        add(name + ".windows", len(_arg(args, kwargs, 2, "windows")))
    elif name == "dataset.make_windows":
        add(name + ".windows", len(result))
    elif name == "dataset.ingest_csv":
        add(name + ".cells", result.values.size)
    elif name == "training.clip_gradients":
        add(name + ".steps", 1)
        add(name + ".clipped", int(result[1] > _arg(args, kwargs, 1, "max_norm")))
    elif name == "pca.fit_projection":
        add(name + ".fits", 1)
    elif name.startswith("transfer.cross_year_eval."):
        add(name + ".mae", result.horizons["avg"].mae)
    elif name in _PATH_ARG:
        add(name + ".bytes", os.path.getsize(_arg(args, kwargs, _PATH_ARG[name], "path")))


class Tracer:
    """In-memory span recorder with install/uninstall over a package."""

    def __init__(self, run_id="run"):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent index, run id]
        self.counters = defaultdict(float)
        self._stack = []
        self._undo = []

    def add(self, key, value):
        self.counters[key] += value

    def _wrap(self, module, fn_name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = _span_name(module, fn_name, args, kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer.run_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                if name == "training.fit":
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        span[1] = time.perf_counter()
                        result = fn(*args, **kwargs)
                        span[2] = time.perf_counter()
                    for w in caught:
                        if not str(w.message).startswith(SKIPPED_BATCH_MESSAGE):
                            warnings.warn_explicit(w.message, w.category,
                                                   w.filename, w.lineno)
                    tracer._observe_fit(args, kwargs, result, caught)
                else:
                    span[1] = time.perf_counter()
                    result = fn(*args, **kwargs)
                    span[2] = time.perf_counter()
            except BaseException:
                span[2] = time.perf_counter()
                raise
            finally:
                tracer._stack.pop()
            _observe(tracer, name, args, kwargs, result)
            return result

        return traced

    def _observe_fit(self, args, kwargs, result, caught):
        """Expected optimizer steps of one fit call, from its own report."""
        train_windows = _arg(args, kwargs, 1, "train_windows")
        config = _arg(args, kwargs, 4, "config")
        report = result[1]
        skipped = sum(str(w.message).startswith(SKIPPED_BATCH_MESSAGE) for w in caught)
        per_epoch = math.ceil(len(train_windows) / config.batch_size)
        self.add("training.fit.epochs", len(report.epochs))
        self.add("training.fit.skipped_batches", skipped)
        self.add("training.fit.windows", len(report.epochs) * len(train_windows))
        self.add("training.fit.expected_steps", len(report.epochs) * per_epoch - skipped)

    def install(self, package="stpca"):
        """Wrap each public function of each package module everywhere it is bound."""
        pkg = importlib.import_module(package)
        wrappers = {}
        for info in pkgutil.iter_modules(pkg.__path__):
            mod = importlib.import_module(f"{package}.{info.name}")
            for fn_name, fn in vars(mod).items():
                if (not fn_name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(info.name, fn_name, fn))
        # every loaded namespace, the caller's own included: a name bound by
        # `from stpca.x import f` anywhere must route through the wrapper
        for holder in list(sys.modules.values()):
            namespace = getattr(holder, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(holder, attr, wrappers[id(value)][1])
                    self._undo.append((holder, attr, value))

    def uninstall(self):
        for holder, attr, fn in reversed(self._undo):
            setattr(holder, attr, fn)
        self._undo.clear()

    def stats(self, phase=None):
        """Per-name calls, inclusive s, self s and call durations for one phase."""
        child_time = defaultdict(float)
        for name, start, end, parent, run_id in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        for i, (name, start, end, parent, run_id) in enumerate(self.spans):
            if phase is not None and run_id != phase:
                continue
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["durations"].append(end - start)
        return out

    def write(self, path):
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")
