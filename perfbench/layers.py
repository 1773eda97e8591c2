"""Per-layer metrics from the spans of a traced run, and the report files.

A layer metric ending in _s is self time: span duration minus the time its
child spans cover, summed over the traced pass.  Counts are summed over the
pass; *_alloc_peak_mb is the largest tracemalloc peak of any span of the
layer in the tracemalloc pass, above the memory in use when the span began
(each span is measured at its first occurrence with given input sizes).
"""

from __future__ import annotations

import json
from pathlib import Path

MB = float(1 << 20)

# (metric, unit, rule); rules: ("self", span), ("count", span, key),
# ("bytes", key), ("alloc", span-name prefix), ("rate", span, key), or special
METRICS = [
    ("cli.import_s", "s", ("import",)),
    ("cli.unattributed_s", "s", ("self", "cli.step")),
    ("lib.unattributed_s", "s", ("self", "lib.step")),
    ("step.coverage_pct", "%", ("coverage",)),
    ("trace.overhead_s", "s", ("overhead",)),
    ("trace.overhead_pct", "%", ("overhead_pct",)),
    ("io.kernel_write_s", "s", ("self", "io.kernel_write")),
    ("io.kernel_read_s", "s", ("self", "io.kernel_read")),
    ("io.read_table_s", "s", ("self", "io.read_table")),
    ("io.parse_s", "s", ("self", "io.parse")),
    ("io.wave_write_s", "s", ("self", "io.wave_write")),
    ("io.sinogram_write_s", "s", ("self", "io.sinogram_write")),
    ("io.sinogram_read_s", "s", ("self", "io.sinogram_read")),
    ("io.written_mb", "MB", ("bytes", "written_b")),
    ("io.read_mb", "MB", ("bytes", "read_b")),
    ("io.alloc_peak_mb", "MB", ("alloc", "io.")),
    ("specfun.ladder_s", "s", ("self", "specfun.ladder")),
    ("specfun.ladder_calls", "count", ("count", "specfun.ladder", "calls")),
    ("specfun.ladder_cells", "count", ("count", "specfun.ladder", "cells")),
    ("specfun.alloc_peak_mb", "MB", ("alloc", "specfun.")),
    ("abwave.mode_sum_s", "s", ("self", "abwave.mode_sum")),
    ("abwave.points", "count", ("count", "abwave.mode_sum", "points")),
    ("abwave.modes", "count", ("count", "abwave.mode_sum", "modes")),
    ("abwave.alloc_peak_mb", "MB", ("alloc", "abwave.")),
    ("smatrix.sample_kernel_s", "s", ("self", "smatrix.sample_kernel")),
    ("smatrix.conjugate_kernel_s", "s", ("self", "smatrix.conjugate_kernel")),
    ("smatrix.compose_s", "s", ("self", "smatrix.compose")),
    ("smatrix.extract_mode_s", "s", ("self", "smatrix.extract_mode")),
    ("smatrix.extract_mode_calls", "count", ("count", "smatrix.extract_mode", "calls")),
    ("smatrix.strip_integral_s", "s", ("self", "smatrix.strip_integral")),
    ("smatrix.strip_integral_calls", "count", ("count", "smatrix.strip_integral", "calls")),
    ("smatrix.alloc_peak_mb", "MB", ("alloc", "smatrix.")),
    ("inverse.modes_s", "s", ("self", "inverse.modes")),
    ("inverse.strip_s", "s", ("self", "inverse.strip")),
    ("inverse.witness_s", "s", ("self", "inverse.witness")),
    ("inverse.winding_search_s", "s", ("self", "inverse.winding_search")),
    ("inverse.winding_candidates", "count", ("count", "inverse.winding_search", "candidates")),
    ("inverse.alloc_peak_mb", "MB", ("alloc", "inverse.")),
    ("gaugefield.flux_s", "s", ("self", "gaugefield.flux")),
    ("gaugefield.eikonal_s", "s", ("self", "gaugefield.eikonal")),
    ("gaugefield.eikonal_calls", "count", ("count", "gaugefield.eikonal", "calls")),
    ("gaugefield.aprime_s", "s", ("self", "gaugefield.aprime")),
    ("gaugefield.aprime_calls", "count", ("count", "gaugefield.aprime", "calls")),
    ("xray.forward_s", "s", ("self", "xray.forward")),
    ("xray.forward_lines", "count", ("count", "xray.forward", "lines")),
    ("xray.invert_s", "s", ("self", "xray.invert")),
    ("xray.a_sinogram_s", "s", ("self", "xray.a_sinogram")),
    ("xray.a_lines", "count", ("count", "xray.a_sinogram", "lines")),
    ("xray.a_lines_per_s", "1/s", ("rate", "xray.a_sinogram", "lines")),
    ("xray.parity_s", "s", ("self", "xray.parity")),
]

# which end-to-end metric a layer metric should move, and on which workload
SHOULD_MOVE = {
    "cli.": "setup_s on all workloads; wall_s on the CLI workloads",
    "lib.": "wall_s on kernel-lib and xray-gauge (benchmark-side work in library steps)",
    "step.": "none: share of in-process step time that layer spans cover",
    "trace.": "none: cost of tracing itself",
    "io.wave": "wall_s on wave-cli and xray-gauge",
    "io.sinogram": "wall_s on xray-gauge",
    "io.": "wall_s and peak_rss_mb on recover-cli",
    "specfun.": "wall_s and peak_rss_mb on wave-cli",
    "abwave.": "wall_s and peak_rss_mb on wave-cli",
    "smatrix.": "wall_s and peak_rss_mb on kernel-lib; small share of wall_s on recover-cli",
    "inverse.": "wall_s and peak_rss_mb on kernel-lib; small share of wall_s on recover-cli",
    "gaugefield.": "wall_s on xray-gauge",
    "xray.": "wall_s on xray-gauge",
}


def should_move(metric: str) -> str:
    return next(v for k, v in SHOULD_MOVE.items() if metric.startswith(k))


def _records(pass_rec: dict):
    """(name, self_s, duration, counts, alloc_b) of every span in a traced pass."""
    for step in pass_rec["steps"]:
        tr = step["trace"]
        for name, start, end, _, _, _, self_s, counts, alloc_b in tr["spans"]:
            yield name, self_s, end - start, counts, alloc_b
        for name, _, _, _, _, _, self_s, counts, alloc_b in tr["aggregated"]:
            yield name, self_s, counts["total_s"], counts, alloc_b


def step_coverage(pass_rec: dict) -> list[dict]:
    """Per step: in-process time of the step span and the share layer spans cover."""
    out = []
    for step in pass_rec["steps"]:
        tr = step["trace"]
        root = next(s for s in tr["spans"] if s[3] == -1)
        dur = root[2] - root[1]
        out.append({"step": step["step"], "kind": step["kind"], "wall_s": step["wall_s"],
                    "import_s": tr["import_s"], "in_process_s": dur, "unattributed_s": root[6],
                    "covered_pct": 100.0 * (1.0 - root[6] / dur) if dur > 0 else 100.0})
    return out


def layer_metrics(passes: list[dict]) -> dict:
    plain, traced, alloc = passes
    recs = list(_records(traced))
    alloc_recs = list(_records(alloc))
    cover = step_coverage(traced)
    overhead = traced["wall_s"] - plain["wall_s"]
    special = {
        "import": sum(c["import_s"] for c in cover),
        "coverage": 100.0 * (1.0 - sum(c["unattributed_s"] for c in cover)
                             / sum(c["in_process_s"] for c in cover)),
        "overhead": overhead,
        "overhead_pct": 100.0 * overhead / plain["wall_s"],
    }
    metrics = {}
    for name, unit, rule in METRICS:
        kind = rule[0]
        if kind in special:
            value = special[kind]
        elif kind == "self":
            value = sum(r[1] for r in recs if r[0] == rule[1])
        elif kind == "count":
            value = sum(r[3].get(rule[2], 0) for r in recs if r[0] == rule[1])
        elif kind == "bytes":
            value = sum(r[3].get(rule[1], 0) for r in recs if r[0].startswith("io.")) / MB
        elif kind == "alloc":
            value = max((r[4] for r in alloc_recs
                         if r[0].startswith(rule[1]) and r[4] is not None), default=0) / MB
        else:  # rate: count per second of span duration
            dur = sum(r[2] for r in recs if r[0] == rule[1])
            count = sum(r[3].get(rule[2], 0) for r in recs if r[0] == rule[1])
            value = count / dur if dur > 0 else 0.0
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_reports(out: Path, workload: str, passes: list[dict], metrics: dict) -> None:
    """<workload>-layers.md (per-step coverage and layer table) and <workload>-spans.json."""
    out.mkdir(parents=True, exist_ok=True)
    plain, traced, _ = passes
    lines = [f"# {workload}: traced run", "",
             f"Plain pass {plain['wall_s']:.3f} s, traced pass {traced['wall_s']:.3f} s, "
             f"tracing overhead {metrics['trace.overhead_s']['value']:.3f} s "
             f"({metrics['trace.overhead_pct']['value']:.1f}%).", "",
             "| step | kind | traced wall s | import s | in-process s | unattributed s | covered % |",
             "| --- | --- | --- | --- | --- | --- | --- |"]
    for c in step_coverage(traced):
        lines.append(f"| {c['step']} | {c['kind']} | {c['wall_s']:.3f} | {c['import_s']:.3f} | "
                     f"{c['in_process_s']:.3f} | {c['unattributed_s']:.3f} | "
                     f"{c['covered_pct']:.1f} |")
    lines += ["", "| layer metric | value | unit | should move |", "| --- | --- | --- | --- |"]
    for name, m in metrics.items():
        lines.append(f"| {name} | {m['value']:.6g} | {m['unit']} | {should_move(name)} |")
    (out / f"{workload}-layers.md").write_text("\n".join(lines) + "\n")
    spans = [{"pass": p["pass"], "mode": p["mode"], "step": s["step"], "kind": s["kind"],
              **s["trace"]} for p in passes[1:] for s in p["steps"]]
    (out / f"{workload}-spans.json").write_text(json.dumps(spans))
