"""Benchmark of the abscatter pipelines, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every step runs as its own process on the
checkout's src/ (first on PYTHONPATH), one at a time from a single client in
a closed loop.  With --trace 0 the run repeats whole passes of the workload's
steps that fit in S seconds (at least one) and reports the end-to-end metrics (medians
over passes).  With --trace 1 it runs one plain pass, one traced pass (layer
spans, for times and counts) and one traced pass under tracemalloc (for
allocation peaks), and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Artifacts live in a
temporary directory under perfbench/out/tmp that is removed after each pass.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPS = 3
STEP_TIMEOUT = 170.0
MB = float(1 << 20)


def run_proc(cmd: list[str], env: dict, stderr_path: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS MB, exit code) of one child process."""
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(STEP_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / MB, proc.returncode


def environment() -> dict:
    """What the numbers depend on: program copy, versions, cores, BLAS threads."""
    import abscatter
    import numpy

    if not Path(abscatter.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: abscatter resolved to {abscatter.__file__}, not {SRC}")
    return {"abscatter_file": abscatter.__file__, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": importlib.metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)),
            "blas_env": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


class Harness:
    def __init__(self, workload_cls, seed: int, run_dir: Path):
        self.run_dir = run_dir
        inputs = run_dir / "inputs"
        inputs.mkdir(parents=True)
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
        # children compile src/ afresh and write no bytecode into the checkout
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.env["TMPDIR"] = str(run_dir)
        self.workload = workload_cls(seed, inputs)
        self.attempted = 0
        self.failures: list[dict] = []
        self.unexpected = 0

    def setup_s(self) -> float:
        cmd = [sys.executable, "-m", "abscatter.cli", "--version"]
        times = []
        for _ in range(SETUP_REPS):
            wall, _, code = run_proc(cmd, self.env, self.run_dir / "setup.err")
            if code != 0:
                raise SystemExit("perfbench: `abscatter --version` failed")
            times.append(wall)
        return statistics.median(times)

    def run_pass(self, pass_id: int, mode: str) -> dict:
        """One pass; mode is "plain", "trace" (spans) or "alloc" (spans + tracemalloc)."""
        work = self.run_dir / f"pass-{pass_id}"
        work.mkdir()
        try:
            self.workload.prepare(work)
            steps = []
            measured: set[str] = set()      # span keys whose allocation peak is known
            for step_id, step in enumerate(self.workload.steps(work)):
                spans = work / f"spans-{step_id}.json"
                if mode == "plain" and step.kind == "cli":
                    cmd = [sys.executable, "-m", "abscatter.cli", *step.args]
                elif mode == "plain":
                    cmd = [sys.executable, str(BENCH / "libsteps.py"), *step.args]
                else:
                    cmd = [sys.executable, str(BENCH / "tracer.py"), str(spans), str(pass_id),
                           str(step_id), json.dumps(sorted(measured)) if mode == "alloc"
                           else "-", step.kind, *step.args]
                errfile = work / f"step-{step_id}.err"
                wall, rss, code = run_proc(cmd, self.env, errfile)
                reason = None
                if code != step.expect_exit:
                    tail = errfile.read_text(errors="replace").strip().splitlines()[-1:]
                    reason = f"exit {code}, expected {step.expect_exit} {tail}"
                else:
                    try:
                        step.check()
                    except Exception as exc:  # a check that crashes is a failed check
                        reason = f"{type(exc).__name__}: {exc}"
                self.attempted += 1
                if reason is not None:
                    self.failures.append({"pass": pass_id, "step": step.name, "reason": reason,
                                          "known_fault": step.fault})
                    if step.fault is None:
                        self.unexpected += 1
                rec = {"step": step.name, "kind": step.kind, "wall_s": wall, "peak_rss_mb": rss,
                       "exit": code, "ok": reason is None}
                if mode != "plain":
                    if not spans.is_file():
                        raise SystemExit(f"perfbench: traced step {step.name} wrote no spans "
                                         f"(exit {code})")
                    rec["trace"] = json.loads(spans.read_text())
                    measured.update(rec["trace"]["alloc_keys"])
                steps.append(rec)
            return {"pass": pass_id, "mode": mode, "steps": steps,
                    "wall_s": sum(s["wall_s"] for s in steps),
                    "peak_rss_mb": max(s["peak_rss_mb"] for s in steps)}
        finally:
            shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "abscatter" / "__init__.py").is_file():
        print(f"perfbench: no abscatter sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.dont_write_bytecode = True
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    run_dir = OUT / "tmp" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        h = Harness(WORKLOADS[args.workload], args.seed, run_dir)
        env_info = environment()
        setup = h.setup_s()
        passes = []
        if args.trace:
            for pass_id, mode in enumerate(("plain", "trace", "alloc")):
                passes.append(h.run_pass(pass_id, mode))
        else:
            # whole passes while another one (at the mean pass length so far,
            # checks included) still ends within the measuring time
            t0 = time.perf_counter()
            while True:
                passes.append(h.run_pass(len(passes), "plain"))
                elapsed = time.perf_counter() - t0
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            run_dir.parent.rmdir()

    if args.trace:
        from layers import layer_metrics, write_reports
        metrics = layer_metrics(passes)
        write_reports(OUT, args.workload, passes, metrics)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(p["wall_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
    result = {"correct": h.unexpected == 0, "attempted": h.attempted,
              "failed": len(h.failures), "metrics": metrics}

    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_info, "setup_s": setup,
              "passes": [{k: v for k, v in p.items() if k != "steps"}
                         | {"steps": [{k: v for k, v in s.items() if k != "trace"}
                                      for s in p["steps"]]} for p in passes],
              "failures": h.failures, "result": result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# abscatter {env_info['abscatter_file']} | python {env_info['python']} "
          f"numpy {env_info['numpy']} scipy {env_info['scipy']} | nproc {env_info['nproc']} "
          f"| blas env {env_info['blas_env']}")
    for p in passes:
        print(f"# pass {p['pass']} ({p['mode']}): wall {p['wall_s']:.3f} s, "
              f"peak RSS {p['peak_rss_mb']:.1f} MB, "
              + ", ".join(f"{s['step']} {s['wall_s']:.2f}s{'' if s['ok'] else ' FAILED'}"
                          for s in p["steps"]))
    for f in h.failures:
        print(f"# failed: pass {f['pass']} {f['step']}: {f['reason']}"
              + (f" [known fault: {f['known_fault']}]" if f["known_fault"] else ""))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
