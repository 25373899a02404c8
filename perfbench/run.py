"""hsifusion benchmark: three closed-loop workloads against the public API.

    python3 perfbench/run.py --workload fuse-whole --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/``. A run generates its seeded inputs, sets up several times, checks the
network and a reference-size request against ``refs.json``, then measures for
``--seconds``. The last stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics named in
BENCHMARK.json with ``--trace 0``, the per-layer ones with ``--trace 1``.
Human-readable lines above it name the same figures as the benchmark's
README. Results and spans are written under ``perfbench/out/``.

``--workload all`` runs every workload in a fresh child process each (peak
memory is per process) and prints their summaries.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("fuse-whole", "fuse-tiled", "train")
SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """Cap the BLAS thread count at nproc; must run before numpy is imported."""
    nproc = len(os.sched_getaffinity(0))
    wanted = nproc
    for var in BLAS_THREAD_VARS:
        try:
            wanted = min(wanted, max(1, int(os.environ[var])))
        except (KeyError, ValueError):
            pass
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(wanted)
    return wanted


def blas_threads_in_use() -> int | None:
    """The thread count numpy's OpenBLAS reports, or None if not queryable."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
    }


def percentiles(latencies: list[float]) -> dict:
    """Median, plus the highest percentile with ten samples beyond it."""
    xs = sorted(latencies)
    out = {"n": len(xs), "p50": statistics.median(xs)}
    if len(xs) >= 11:
        k = len(xs) - 11
        out[f"p{100 * (k + 1) // len(xs)}"] = xs[k]
    return out


class Phase:
    """A closed loop with one client: each request starts when the last ends."""

    def __init__(self, bench, tracer):
        self.bench, self.tracer = bench, tracer
        self.latencies: list[float] = []   # per scene or per optimizer step
        self.requests: list[int] = []
        self.units = 0
        self.failed = 0
        self.wall = 0.0

    def run(self, first: int, seconds: float | None = None, count: int | None = None):
        """Run requests from id ``first`` for ``count`` requests, or while the
        next one is expected to end within ``seconds`` (at least one)."""
        start = perf_counter()
        request_times = []
        i = first
        while True:
            if self.tracer is not None:
                self.tracer.request = i
            t0 = perf_counter()
            try:
                problems = self.bench.request(i)
            except Exception:  # a failed request is counted, the loop goes on
                problems = ["request raised:\n" + traceback.format_exc()]
            t1 = perf_counter()
            request_times.append(t1 - t0)
            self.requests.append(i)
            if problems:
                self.failed += 1
                print(f"request {i} failed: " + "; ".join(problems), file=sys.stderr)
            else:
                if self.bench.unit_span is None:
                    units = [t1 - t0]
                else:
                    units = self.tracer.durations(self.bench.unit_span, i)
                self.latencies += units
                self.units += len(units)
            i += 1
            elapsed = t1 - start
            if count is not None:
                if len(self.requests) >= count:
                    break
            elif elapsed + statistics.median(request_times) > seconds:
                break
        self.wall = perf_counter() - start
        return self

    @property
    def kpix_per_s(self) -> float:
        return self.units * self.bench.kpix_per_unit / self.wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    import numpy as np

    import spans
    import workloads

    declared = load_declared()
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    bench = workloads.WORKLOADS[name](seed, workdir)
    lines = [f"workload {name} seed {seed} trace {int(trace)}"]
    try:
        refs = workloads.load_refs()
        t0 = perf_counter()
        bench.generate()
        gen_s = perf_counter() - t0

        if trace:
            tracer = spans.Tracer()
            tracer.request = "setup"
            tracer.install()
            try:
                bench.setup()
            finally:
                tracer.remove()
            setup_times = []
        else:
            setup_times = []
            for _ in range(SETUP_REPEATS):
                t0 = perf_counter()
                bench.setup()
                setup_times.append(perf_counter() - t0)

        checks = bench.reference_checks(refs)
        ref_failed = sum(1 for problems in checks.values() if problems)
        for check, problems in checks.items():
            print(f"check {check}: " + ("; ".join(problems) or "ok"), file=sys.stderr)

        step_timer = spans.Tracer([bench.unit_span]) if bench.unit_span else None
        if step_timer:
            step_timer.install()
        try:
            plain = Phase(bench, step_timer).run(0, seconds=seconds / 2 if trace else seconds)
        finally:
            if step_timer:
                step_timer.remove()

        phases = [plain]
        if trace:
            tracer.install()
            try:
                traced = Phase(bench, tracer).run(plain.requests[-1] + 1,
                                                  count=len(plain.requests))
            finally:
                tracer.remove()
            phases.append(traced)
            tracer.write_jsonl(os.path.join(OUT, f"{tag}-spans.jsonl"))

        attempted = sum(len(p.requests) for p in phases) + len(checks)
        failed = sum(p.failed for p in phases) + ref_failed
        if not plain.latencies:
            raise RuntimeError(f"no request of {name} succeeded")
        if trace:
            if not traced.latencies:
                raise RuntimeError(f"no traced request of {name} succeeded")
            computed = spans.summarize(tracer.spans, traced.requests, traced.units)
            if isinstance(bench, workloads.FuseBench):
                computed["sampler.tiles"] = (
                    computed["denoiser.predict_noise.calls"] / bench.steps)
            else:
                computed["sampler.tiles"] = 0.0
            untraced_p50 = statistics.median(plain.latencies)
            traced_p50 = statistics.median(traced.latencies)
            computed["trace.untraced_p50_s"] = untraced_p50
            computed["trace.traced_p50_s"] = traced_p50
            computed["trace.overhead_pct"] = 100.0 * (traced_p50 - untraced_p50) / untraced_p50
            metrics = pick(declared["per_layer"], computed)
            lines.append(f"tracing overhead: p50 {traced_p50:.4f} s traced vs "
                         f"{untraced_p50:.4f} s untraced "
                         f"({computed['trace.overhead_pct']:+.1f}%, "
                         f"{len(traced.latencies)} vs {len(plain.latencies)} samples)")
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            computed = {
                "setup_s": statistics.median(setup_times),
                "kpix_per_s": plain.kpix_per_s,
                "request_p50_s": statistics.median(plain.latencies),
                "peak_rss_mb": peak_rss_mb,
            }
            metrics = pick(declared["end_to_end"], computed)
            lines += summary_lines(bench, plain, computed, gen_s, failed, attempted)

        env = environment(np)
        lines.append("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        with open(os.path.join(OUT, f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "seconds": seconds, "env": env,
                       "gen_s": gen_s, "setup_s_all": setup_times, "checks": checks,
                       "latencies": [p.latencies for p in phases],
                       "computed": computed, **result}, fh, indent=1)
        return result, lines
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def summary_lines(bench, phase, computed, gen_s, failed, attempted) -> list[str]:
    """The end-to-end figures under the names the benchmark's README uses."""
    pct = percentiles(phase.latencies)
    tail = ", ".join(f"{k} {v:.4f} s" for k, v in pct.items() if k not in ("n", "p50"))
    tail = tail or "no tail percentile: fewer than 11 samples"
    if bench.unit_span is None:
        named = [("fuse_kpix_per_s", computed["kpix_per_s"], "kpix/s"),
                 ("fuse_scene_p50_s", computed["request_p50_s"], "s")]
    else:
        named = [("train_steps_per_s", phase.units / phase.wall, "1/s"),
                 ("train_step_p50_s", computed["request_p50_s"], "s")]
    named = [("gen_s", gen_s, "s"), ("setup_s", computed["setup_s"], "s")] + named + [
        ("peak_rss_mb", computed["peak_rss_mb"], "MB"),
        ("error_rate", failed / attempted, f"({failed}/{attempted})"),
    ]
    lines = [f"{label:<20} {value:12.4f} {unit}" for label, value, unit in named]
    lines.append(f"latency samples      n={pct['n']}; {tail}")
    return lines


def load_declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def pick(declared: list[dict], computed: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in computed]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not computed: {missing}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]} for m in declared}


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="", flush=True)
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "hsifusion", "__init__.py")):
        print(f"perfbench: no hsifusion sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import hsifusion

    if not os.path.abspath(hsifusion.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported hsifusion from {hsifusion.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
