#!/usr/bin/env python3
"""Benchmark of the ``tlc`` command line, driven in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: ``tlc`` is imported from ``src/`` and
nowhere else, and all files go to ``.perfbench_work/`` there, which is
removed at exit. One process and one client thread call ``tlc.cli.main``
in a closed loop: the next command starts when the previous one returns,
cycling through the workload's commands until ``--seconds`` have passed
and every command has run at least once. Each command's outputs are
checked (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` reports its per-layer metrics: the same cycles run first
untraced and then with every public ``tlc`` function wrapped (see
``tracing.py``), and the traced outputs must be bit-identical. Human
readable lines come first; the last line of stdout is one JSON object.
Exit status is 0 when a result was printed, 2 when the benchmark could
not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 3
TAIL_BEYOND = 10


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _hash_files(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _hash_dir(d: Path) -> str:
    return _hash_files(sorted(p for p in d.iterdir() if p.is_file()))


def _blas_threads():
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "blas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": args.workload,
        "shapes": workload.describe(),
    }


def _tail_ratio(latencies: dict[str, list[float]]):
    """Latency over its kind's median, at the highest percentile that has
    ten samples beyond it (the eleventh largest ratio); the largest ratio
    when there are fewer samples. Returns (ratio, percentile, samples)."""
    ratios = sorted(v / statistics.median(vs) for vs in latencies.values() for v in vs)
    n = len(ratios)
    if n > TAIL_BEYOND:
        return ratios[-1 - TAIL_BEYOND], 100 * (n - 1 - TAIL_BEYOND) / (n - 1), n
    return ratios[-1], 100.0, n


class Runner:
    """Runs and checks commands, keeping latencies per command kind."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0

    def run(self, op, errors) -> float:
        self.attempted += 1
        ok = False
        t0 = time.perf_counter()
        try:
            if self.tracer is not None:
                self.tracer.active = True
            try:
                rc = self.cli.main(op.argv)
            finally:
                if self.tracer is not None:
                    self.tracer.active = False
            lat = time.perf_counter() - t0
            if rc != 0:
                print(f"perfbench: {op.kind} exited {rc}", file=sys.stderr)
            else:
                op.check(op.outdir, errors)
                ok = True
        except Exception:
            lat = time.perf_counter() - t0
            print(f"perfbench: {op.kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
        self.latencies.setdefault(op.kind, []).append(lat)
        if not ok:
            self.failed += 1
        return lat


def _end_to_end(runner, cycle, errors, setup_s) -> tuple[dict, list]:
    """The JSON metrics, and report lines (name, value, unit, note) for
    the per-command figures that apply to this workload only."""
    kind_ms = {k: 1e3 * statistics.median(v) for k, v in runner.latencies.items()}
    cycle_ms = sum(kind_ms[op.kind] for op in cycle)
    metrics = {
        "setup_s": setup_s,
        "cycle_ms": cycle_ms,
        "mvox_per_s": sum(op.vox for op in cycle) / 1e6 / (cycle_ms / 1e3),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_err_ulp": errors.max_ulp,
    }
    tail, pct, n = _tail_ratio(runner.latencies)
    lines = [
        ("ops_failed_frac", runner.failed / runner.attempted, "frac",
         f"{runner.failed} of {runner.attempted}"),
        ("max_abs_err", errors.max_abs, "abs", f"over {errors.values} checked values"),
        ("latency_tail_ratio", tail, "ratio", f"p{pct:.1f} of {n} samples"
         + ("" if n > TAIL_BEYOND else ", the maximum: fewer than 11 samples")),
    ]
    pooled: dict[str, list[float]] = {}
    for op in cycle:
        pooled.setdefault(op.metric, []).extend(runner.latencies[op.kind])
    for name, v in pooled.items():
        lines.append((name, 1e3 * statistics.median(v), "ms", f"median of {len(v)}"))
    for op in cycle:
        v = runner.latencies[op.kind]
        lines.append((f"kind.{op.kind}_ms", kind_ms[op.kind], "ms", f"median of {len(v)}"))
    return metrics, lines


def _per_layer(tracer, cycles, untraced_s, traced_s, workload) -> dict:
    from workloads import (ANALYSIS_FUNCS, CONVERT_MODULES, DEMO_FUNCS, FUSION_FUNCS,
                           INTEGRAL_KERNELS, MODULE_FORWARDS, TENSOR_FUNCS)

    m = {}

    def span(name):
        m[f"{name}.calls"] = tracer.calls[name] // cycles
        m[f"{name}.self_ms"] = 1e3 * tracer.self_s[name] / cycles

    for layer, funcs in (("integral", INTEGRAL_KERNELS), ("modules", MODULE_FORWARDS),
                         ("tensor", TENSOR_FUNCS), ("fusion", FUSION_FUNCS),
                         ("analysis", ANALYSIS_FUNCS), ("demo", DEMO_FUNCS)):
        for f in funcs:
            span(f"{layer}.{f}")
    x = tracer.extra
    pixels = x["integral.replicate_to_full.pixels"]
    m["integral.replicate_to_full.padded_frac"] = (
        x["integral.replicate_to_full.padded"] / pixels if pixels else 0.0)
    m["integral.computed_mb"] = x["integral.computed_bytes"] / 1e6 / cycles
    m["tensor.read_tensor.mb"] = x["tensor.read_tensor.bytes"] / 1e6 / cycles
    m["tensor.write_tensor.mb"] = x["tensor.write_tensor.bytes"] / 1e6 / cycles
    m["fusion.tiles"] = int(x["fusion.tiles"]) // cycles
    m["fusion.overlap_factor"] = (x["fusion.tile_area"] / x["fusion.map_area"]
                                  if x["fusion.map_area"] else 0.0)
    macs = workload.module_macs() if hasattr(workload, "module_macs") else {}
    for mod in CONVERT_MODULES:
        m[f"modules.{mod}.local_macs"] = macs.get(mod, 0)
    m["cli.self_ms"] = 1e3 * sum(v for k, v in tracer.self_s.items()
                                 if k.startswith("cli.")) / cycles
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return m


def _trace_checks(tracer, spec, cycles) -> list[str]:
    problems = []
    for name in sorted(spec.expect):
        if name not in tracer.names:
            problems.append(f"{name} is not a wrapped function")
        elif tracer.calls[name] == 0:
            problems.append(f"{name} was never called")
    for name in sorted(tracer.names):
        if name.split(".", 1)[0] in spec.forbid_layers and tracer.calls[name]:
            problems.append(f"{name} called {tracer.calls[name]} times")
        if tracer.calls[name] % cycles:
            problems.append(f"{name}: {tracer.calls[name]} calls over {cycles} cycles")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return _fail("--seed must be >= 0")

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    sys.dont_write_bytecode = True  # leave the checkout as found
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    try:
        import tlc.cli as cli
    except ImportError as exc:
        return _fail(f"cannot import tlc from {ROOT / 'src'}: {exc}")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        return _fail(f"tlc was imported from {cli.__file__}, not from {ROOT / 'src'}")
    import_s = time.perf_counter() - t0  # tlc with numpy and scipy

    from tracing import Tracer
    from workloads import WORKLOADS, Errors

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        return _fail(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    workload = spec.make(args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        return _run(args, bench, cli, spec, workload, work, import_s, Tracer, Errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _run(args, bench, cli, spec, workload, work, import_s, Tracer, Errors) -> int:
    # Set-up: generate inputs and warm up, several times; the generated
    # files must be byte-identical each time.
    setup_times, input_hashes = [], []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        paths = workload.generate(work / "inputs")
        for warm in workload.warmups(work):
            cli.main(warm)
        setup_times.append(time.perf_counter() - t0)
        input_hashes.append(_hash_files(paths))
    setup_s = import_s + statistics.median(setup_times)
    problems = []
    if len(set(input_hashes)) != 1:
        problems.append("the same seed generated different inputs")

    cycle = workload.cycle(work)
    errors = Errors()
    runner = Runner(cli)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(_environment(args, workload), sort_keys=True))

    if args.trace == 0:
        start = time.perf_counter()
        i = 0
        while i < len(cycle) or time.perf_counter() - start < args.seconds:
            runner.run(cycle[i % len(cycle)], errors)
            i += 1
        metrics, lines = _end_to_end(runner, cycle, errors, setup_s)
        report = {"setup_runs_s": setup_times, "import_s": import_s}
        wanted = bench["end_to_end"]
    else:
        # Untraced cycles for half the time, then as many traced ones.
        start = time.perf_counter()
        cycles, untraced_s, hashes = 0, 0.0, []
        while cycles == 0 or time.perf_counter() - start < args.seconds / 2:
            for op in cycle:
                untraced_s += runner.run(op, errors)
                if cycles == 0:
                    hashes.append(_hash_dir(op.outdir))
            cycles += 1
        tracer = Tracer()
        tracer.install()
        try:
            traced = Runner(cli, tracer)
            traced_s, calls_per_op = 0.0, {}
            for c in range(cycles):
                for op, digest in zip(cycle, hashes):
                    before = dict(tracer.calls)
                    traced_s += traced.run(op, errors)
                    if c == 0:
                        calls_per_op[op.kind] = {
                            k: v - before.get(k, 0) for k, v in tracer.calls.items()
                            if v - before.get(k, 0)}
                    if _hash_dir(op.outdir) != digest:
                        problems.append(f"{op.kind}: traced output differs from untraced")
        finally:
            tracer.uninstall()
        runner.attempted += traced.attempted
        runner.failed += traced.failed
        problems += _trace_checks(tracer, spec, cycles)
        metrics = _per_layer(tracer, cycles, untraced_s, traced_s, workload)
        lines = []
        report = {
            "cycles": cycles,
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "calls_per_op": calls_per_op,
            "local_forward_ms_per_call": {
                k: {"median": 1e3 * statistics.median(v), "n": len(v)}
                for k, v in sorted(tracer.local_forward_s.items())},
        }
        wanted = bench["per_layer"]

    for p in problems:
        print(f"perfbench: self-check failed: {p}", file=sys.stderr)
    missing = [w["name"] for w in wanted if w["name"] not in metrics]
    if missing:
        return _fail(f"metrics not produced: {missing}")
    for w in wanted:
        print(f"metric {w['name']} {metrics[w['name']]:.6g} {w['unit']}")
    for name, value, unit, note in lines:
        print(f"report {name} {value:.6g} {unit} ({note})")
    for key, value in report.items():
        print(f"detail {key} {json.dumps(value, sort_keys=True)}")
    print(json.dumps({
        "correct": runner.failed == 0 and not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]}
                    for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
