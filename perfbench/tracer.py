"""Traced launcher: runs one benchmark step in-process with layer spans.

    python3 perfbench/tracer.py SPANS.json PASS STEP ALLOC cli ARGV...
    python3 perfbench/tracer.py SPANS.json PASS STEP ALLOC lib NAME PARAMS.json OUTDIR

ALLOC is "-" for a timing run, or a JSON list of the span keys whose
allocation peaks earlier steps of the pass already measured.

The launcher imports the program, wraps the public functions of each layer
module in span recorders (under every name the function is bound to,
including names imported into other modules), runs the step, and writes its
spans once at exit.  In a tracemalloc run each span records its allocation
peak above the memory it started with; timings from such a run are not used.
Nothing under src/ is modified: the wrappers live in the loaded modules only.

A span is [name, start, end, parent, pass, step, self_s, counts, alloc_b].
Functions called thousands of times (listed in AGGREGATED) are kept as one
record per (name, parent) holding the call count and summed times, with
the summed duration under counts["total_s"].
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
import traceback
import tracemalloc

# (module, attribute) -> span name.  A class attribute is "Class.method".
WRAPPED = {
    ("specfun", "bessel_j_ladder"): "specfun.ladder",
    ("abwave", "eval_ab_wave_grid"): "abwave.mode_sum",
    ("abwave", "save_wave_csv"): "io.wave_write",
    ("smatrix", "sample_kernel"): "smatrix.sample_kernel",
    ("smatrix", "conjugate_kernel"): "smatrix.conjugate_kernel",
    ("smatrix", "compose_with_amplitude"): "smatrix.compose",
    ("smatrix", "extract_mode"): "smatrix.extract_mode",
    ("smatrix", "strip_integral"): "smatrix.strip_integral",
    ("smatrix", "save_kernel_csv"): "io.kernel_write",
    ("smatrix", "load_kernel_csv"): "io.kernel_read",
    ("inverse", "recover_flux_from_modes"): "inverse.modes",
    ("inverse", "recover_flux_from_strip"): "inverse.strip",
    ("inverse", "recover_flux"): "inverse.witness",
    ("inverse", "detect_conjugation"): "inverse.winding_search",
    ("gaugefield", "flux"): "gaugefield.flux",
    ("gaugefield", "eikonal_phase"): "gaugefield.eikonal",
    ("gaugefield", "phase_gradient_check"): "gaugefield.gradient_check",
    ("gaugefield", "gradient_formula"): "gaugefield.gradient_formula",
    ("gaugefield", "VectorPotential.aprime"): "gaugefield.aprime",
    ("gaugefield", "load_potential_json"): "io.potential_read",
    ("xray", "radon_forward"): "xray.forward",
    ("xray", "radon_invert"): "xray.invert",
    ("xray", "a_line_sinogram"): "xray.a_sinogram",
    ("xray", "flux_parity_test"): "xray.parity",
    ("xray", "save_sinogram_csv"): "io.sinogram_write",
    ("xray", "load_sinogram_csv"): "io.sinogram_read",
    ("io", "read_table"): "io.read_table",
    ("io", "parse_block"): "io.parse",
}

AGGREGATED = {"gaugefield.aprime"}


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# span name -> function(args) giving the counts known before the call
PRE_COUNTS = {
    "specfun.ladder": lambda a: {"calls": 1, "cells": int(a[1]) * _size(a[2])},
    "abwave.mode_sum": lambda a: {"points": len(a[1]), "modes": 2 * a[0].truncation + 1},
    "smatrix.extract_mode": lambda a: {"calls": 1},
    "smatrix.strip_integral": lambda a: {"calls": 1},
    "inverse.winding_search": lambda a: {"candidates": 2 * int(a[2]) + 1},
    "gaugefield.eikonal": lambda a: {"calls": 1},
    "gaugefield.aprime": lambda a: {"calls": 1},
    "xray.forward": lambda a: {"lines": int(a[1]) * int(a[2])},
    "xray.a_sinogram": lambda a: {"lines": _size(a[1]) * _size(a[2])},
    "io.kernel_read": lambda a: {"read_b": _path_size(a[0])},
    "io.sinogram_read": lambda a: {"read_b": _path_size(a[0])},
    "io.kernel_write": lambda a: {"n": a[0].n},
    "io.wave_write": lambda a: {"points": len(a[1])},
    "io.sinogram_write": lambda a: {"lines": a[0].values.size},
}

# span name -> index of the path argument of a writer (bytes counted after the call)
WRITE_PATH_ARG = {"io.kernel_write": 1, "io.wave_write": 0, "io.sinogram_write": 1}


class Recorder:
    """In-memory span stack; spans are written once by dump().

    With `skip_alloc` set (the tracemalloc pass), tracemalloc runs only inside
    spans whose key -- name plus the size counts known before the call -- is
    not in skip_alloc, so each (span, input size) is measured at its first
    occurrence in a pass without slowing the steps that only repeat it.
    alloc_b is None for spans not measured; alloc_keys lists the keys measured.
    """

    def __init__(self, pass_id: int, step_id: int, skip_alloc: set[str] | None):
        self.pass_id = pass_id
        self.step_id = step_id
        self.skip_alloc = skip_alloc
        self.spans: list[list] = []
        self.aggregates: dict[tuple[str, int], list] = {}
        self.alloc_keys: set[str] = set()
        # open frames: [span index or -1, start, child_s, name, peak_seen,
        #               start_mem or None when not measured, owns tracemalloc]
        self.stack: list[list] = []

    def open(self, name: str, aggregate: bool = False, counts: dict | None = None) -> list:
        start_mem, owner = None, False
        if self.skip_alloc is not None:
            key = "" if counts is None else f"{name}{sorted(counts.items())}"
            if tracemalloc.is_tracing():
                start_mem, peak = tracemalloc.get_traced_memory()
                self.stack[-1][4] = max(self.stack[-1][4], peak)
                tracemalloc.reset_peak()
            elif key not in self.skip_alloc:
                tracemalloc.start()
                start_mem, owner = 0, True
            if start_mem is not None:
                self.alloc_keys.add(key)
        idx = -1
        if not aggregate:
            parent = self.stack[-1][0] if self.stack else -1
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.pass_id, self.step_id,
                               0.0, {}, None])
        frame = [idx, time.perf_counter(), 0.0, name, 0, start_mem, owner]
        self.stack.append(frame)
        return frame

    def close(self, frame: list, counts: dict) -> None:
        end = time.perf_counter()
        self.stack.pop()
        idx, start, child_s, name, peak_seen, start_mem, owner = frame
        dur = end - start
        alloc_b = None
        if start_mem is not None:
            peak = max(peak_seen, tracemalloc.get_traced_memory()[1])
            alloc_b = max(0, peak - start_mem)
            if owner:
                tracemalloc.stop()
            elif self.stack:
                self.stack[-1][4] = max(self.stack[-1][4], peak)
        if self.stack:
            self.stack[-1][2] += dur
        if idx >= 0:
            span = self.spans[idx]
            span[1], span[2], span[6], span[7], span[8] = start, end, dur - child_s, counts, alloc_b
            return
        parent = self.stack[-1][0] if self.stack else -1
        agg = self.aggregates.get((name, parent))
        if agg is None:
            agg = self.aggregates[(name, parent)] = [name, start, end, parent, self.pass_id,
                                                      self.step_id, 0.0, {}, None, 0.0]
        agg[2] = end
        agg[6] += dur - child_s
        agg[9] += dur
        for key, val in counts.items():
            agg[7][key] = agg[7].get(key, 0) + val
        if alloc_b is not None:
            agg[8] = max(agg[8] or 0, alloc_b)

    def dump(self, path: str, extra: dict) -> None:
        aggregated = []
        for agg in self.aggregates.values():
            agg[7]["total_s"] = agg[9]
            aggregated.append(agg[:9])
        with open(path, "w", encoding="ascii") as f:
            json.dump({"spans": self.spans, "aggregated": aggregated,
                       "alloc_keys": sorted(self.alloc_keys), **extra}, f)


def _wrap(fn, name: str, rec: Recorder):
    pre = PRE_COUNTS.get(name)
    path_arg = WRITE_PATH_ARG.get(name)
    aggregate = name in AGGREGATED

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts = pre(args) if pre is not None else {}
        frame = rec.open(name, aggregate, counts)
        try:
            return fn(*args, **kwargs)
        finally:
            if path_arg is not None:
                counts["written_b"] = _path_size(args[path_arg])
            rec.close(frame, counts)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every binding of the WRAPPED functions in the loaded abscatter modules."""
    pkg = "abscatter."
    span_of = {}                    # id(original function) -> span name
    for (mod_name, attr), span_name in WRAPPED.items():
        mod = sys.modules.get(pkg + mod_name)
        if mod is None:
            continue
        owner, _, meth = attr.rpartition(".")
        if owner:
            cls = getattr(mod, owner)
            setattr(cls, meth, _wrap(getattr(cls, meth), span_name, rec))
        else:
            span_of[id(getattr(mod, attr))] = span_name
    wrappers = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith(pkg):
            continue
        for attr, val in list(vars(mod).items()):
            span_name = span_of.get(id(val))
            if span_name is not None:
                if id(val) not in wrappers:
                    wrappers[id(val)] = _wrap(val, span_name, rec)
                setattr(mod, attr, wrappers[id(val)])


def main(argv: list[str]) -> int:
    spans_path, pass_id, step_id, alloc, kind = argv[:5]
    rest = argv[5:]
    skip = None if alloc == "-" else {"", *json.loads(alloc)}
    rec = Recorder(int(pass_id), int(step_id), skip)
    t0 = time.perf_counter()
    if kind == "cli":
        import abscatter.cli as entry
    else:
        import libsteps as entry
        for name in entry.MODULES[rest[0]]:
            importlib.import_module(name)
    import_s = time.perf_counter() - t0
    install(rec)
    frame = rec.open("cli.step" if kind == "cli" else "lib.step")
    try:
        code = entry.main(rest)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # what an uncaught exception does to a plain run: exit 1
        traceback.print_exc()
        code = 1
    finally:
        rec.close(frame, {})
    rec.dump(spans_path, {"import_s": import_s, "kind": kind, "exit": code})
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
