"""Run one ``repro`` command in-process with every layer's entry points timed.

Usage::

    PYTHONPATH=src python -X importtime cmdbench/traced.py LAYERS.json ARG...

behaves like ``python -m repro ARG...`` (same stdout, stderr and exit
code) and also writes LAYERS.json: the time spent importing
``repro.cli``, the time in ``repro.cli.main``, and the self time and
call count of each layer's public functions below it.

The wrappers are installed in the defining module the moment it is
imported, so every ``from ... import name`` that follows binds the
wrapper; a final sweep rebinds any module that still holds an original.
Self time comes from a nesting stack: a call's self time is its
duration minus the durations of the wrapped calls made inside it, so the
self times of all layers plus ``cli`` sum to the time in ``main``.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _ensemble_layer(args, kwargs):
    engine = kwargs.get("engine", args[7] if len(args) > 7 else "count")
    return "simulation.vector" if engine == "vector" else "simulation.count"


# layer -> (defining module, attribute or Class.method); a callable layer
# names the layer from the call's arguments.
TARGETS = (
    ("obs.recorder", "repro.obs.runs", (
        "RunRecorder.open", "RunRecorder.finalize", "RunRecorder.event",
        "RunRecorder.tracer_event", "RunRecorder.note_checkpoint")),
    ("obs.recorder", "repro.obs.exporters", (
        "JsonlExporter.__init__", "JsonlExporter.export", "JsonlExporter.export_event",
        "JsonlExporter.close")),
    ("cache.fingerprint", "repro.cache.fingerprint", ("protocol_fingerprint",)),
    ("cache.get", "repro.cache.store", ("CacheStore.get_object", "CacheStore.get_payload")),
    ("cache.put", "repro.cache.store", ("CacheStore.put_object", "CacheStore.put_payload")),
    ("reachability.karp_miller", "repro.reachability.coverability", ("karp_miller",)),
    ("diophantine.pottier", "repro.diophantine.pottier", (
        "solve_equalities", "solve_inequalities", "solve_equalities_inhomogeneous")),
    ("bounds.section4", "repro.bounds.pipeline", ("section4_certificate",)),
    ("bounds.section5", "repro.bounds.pipeline", ("section5_certificate",)),
    ("bounds.report", "repro.bounds.report", ("full_report",)),
    ("analysis.verify", "repro.analysis.verification", ("verify_protocol",)),
    ("analysis.infer_basis", "repro.analysis.basis", ("infer_basis",)),
    ("analysis.saturation", "repro.analysis.saturation", ("saturation_sequence",)),
    ("analysis.expected_time", "repro.analysis.expected_time", ("expected_convergence_time",)),
    ("scenarios.run_checks", "repro.scenarios.checks", ("run_checks",)),
    (_ensemble_layer, "repro.simulation.ensembles", ("run_ensemble",)),
)
_MODULES = {module for _, module, _ in TARGETS}

SELF = defaultdict(float)
CALLS = Counter()
_STACK = []  # one [child seconds] cell per active wrapped call
_WRAPPED = {}  # id(original function) -> wrapper


def timed(layer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = layer(args, kwargs) if callable(layer) else layer
        cell = [0.0]
        _STACK.append(cell)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            _STACK.pop()
            SELF[name] += elapsed - cell[0]
            CALLS[name] += 1
            if _STACK:
                _STACK[-1][0] += elapsed

    return wrapper


def _patch(module) -> None:
    for layer, name, attributes in TARGETS:
        if name != module.__name__:
            continue
        for attribute in attributes:
            owner, _, method = attribute.rpartition(".")
            if owner:
                cls = getattr(module, owner)
                original = cls.__dict__[method]
                if isinstance(original, classmethod):
                    setattr(cls, method, classmethod(timed(layer, original.__func__)))
                else:
                    setattr(cls, method, timed(layer, original))
            else:
                original = getattr(module, attribute)
                wrapper = timed(layer, original)
                _WRAPPED[id(original)] = wrapper
                setattr(module, attribute, wrapper)


def _sweep() -> None:
    """Rebind every loaded ``repro`` module still holding an original."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            wrapper = _WRAPPED.get(id(value))
            if wrapper is not None and wrapper is not value and wrapper.__wrapped__ is value:
                setattr(module, key, wrapper)


class _PatchAfterImport(importlib.abc.MetaPathFinder):
    """Find a target module normally, then patch it right after it executes."""

    def find_spec(self, fullname, path, target=None):
        if fullname not in _MODULES:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path, target)
        if spec is None or spec.loader is None:
            return spec
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(module)

        spec.loader.exec_module = exec_and_patch
        return spec


def main() -> int:
    layers_path, argv = sys.argv[1], sys.argv[2:]
    sys.meta_path.insert(0, _PatchAfterImport())
    start = perf_counter()
    import repro.cli

    import_s = perf_counter() - start
    _sweep()
    entry = timed("cli", repro.cli.main)
    start = perf_counter()
    try:
        code = entry(argv)
    except SystemExit as stop:
        # What the interpreter does with the SystemExit of `python -m repro`.
        code = stop.code
        if code is not None and not isinstance(code, int):
            print(code, file=sys.stderr)
            code = 1
    main_s = perf_counter() - start
    sys.stdout.flush()
    with open(layers_path, "w") as handle:
        json.dump(
            {
                "import_s": import_s,
                "main_s": main_s,
                "self_s": dict(SELF),
                "calls": dict(CALLS),
                "stack_balanced": not _STACK,
            },
            handle,
        )
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
