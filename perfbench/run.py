"""Benchmark of the innerclt package: one workload per process.

    python3 perfbench/run.py --workload quad_corr --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: the package is imported from
src/, never from an installed copy, and scratch files go to .perfbench_work/.

--trace 0 (timed run): three child processes each import the package and
build the workload's inputs; setup_s is their median time from spawn to
"ready".  In this process whole rounds repeat until --seconds have passed;
the first is a warm-up whose times are dropped.  Reported: setup_s, wall_s
(median time of a round's ops), op_p50_ms and op_p90_ms over all timed
ops, peak_mem_mb (peak RSS of this process).

--trace 1 (traced run): untraced rounds run for --seconds as above, then
exactly one round runs with the wrappers of tracing.py installed, so
counts repeat exactly for a seed.  Reported: the per-layer metrics,
trace.overhead_s (traced round minus median untraced round), trace.spans,
and import.scipy_stats_s (median of three child processes).  The spans are
written to .perfbench_work/spans-<workload>-seed<seed>.tsv.

Every op's output is checked; an op that raises or fails its check is a
failed op.  Lines before the last describe the run (provenance, metrics
with units, fail_ratio, outputs); the last line is the JSON result.
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
import time
from pathlib import Path

# Pin native thread pools before numpy loads: one process, one thread each.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("quad_corr", "clark_atoms", "clt_sample", "variance_scan")
SETUP_PROBES = 3
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 120
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("peak_mem_mb", "MB"))
EXTRA_PER_LAYER = (("import.scipy_stats_s", "s"), ("trace.overhead_s", "s"),
                   ("trace.spans", "count"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny input sizes, for the self-test")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "innerclt" / "__init__.py").is_file():
        print(f"error: no innerclt sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import innerclt

    if Path(innerclt.__file__).resolve().parent != SRC / "innerclt":
        print(f"error: imported innerclt from {innerclt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        ops = workloads.build(args.workload, args.seed, args.tiny, workdir)
        print("provenance " + json.dumps(provenance(args.seed)))
        if args.trace:
            result = traced_run(args, ops)
        else:
            result = timed_run(args, ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, entry in result["metrics"].items():
        print(f"metric {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps(result))
    return 0


# -- running rounds ---------------------------------------------------------


class Tally:
    """Ops attempted and failed, with the last round's outputs."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.outputs = {}

    def run_round(self, ops, tracer=None) -> list:
        """Run every op once; return the op times in seconds."""
        times = []
        for op_id, op in enumerate(ops):
            if tracer is not None:
                tracer.op_id, tracer.enabled = op_id, True
            start = time.perf_counter()
            try:
                out = op.fn()
            except Exception as exc:  # a raising op is a failed op; keep going
                out, error = None, exc
            else:
                error = None
            times.append(time.perf_counter() - start)
            if tracer is not None:
                tracer.enabled = False
            ok, info = False, {}
            if error is None:
                try:
                    ok, info = op.check(out)
                except Exception as exc:  # a check that cannot read the output fails the op
                    error = exc
            self.attempted += 1
            if not ok:
                reason = repr(error) if error is not None else f"check failed {info}"
                self.failures.append(f"{op.name}: {reason}")
            self.outputs[op.name] = info
        return times

    def result(self, metrics: dict, units: dict) -> dict:
        for failure in self.failures:
            print(f"failed op {failure}", file=sys.stderr)
        return {"correct": not self.failures, "attempted": self.attempted,
                "failed": len(self.failures),
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def measure(tally, ops, seconds) -> list:
    """Run whole rounds for `seconds`; return each round's op times.

    The first round is a warm-up (lazy imports, first-call costs): it runs
    inside the window, but its times are dropped.
    """
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 2 or time.perf_counter() - start < seconds:
        rounds.append(tally.run_round(ops))
    return rounds[1:]


def timed_run(args, ops) -> dict:
    setup = [setup_probe(args, i) for i in range(SETUP_PROBES)]
    tally = Tally()
    rounds = measure(tally, ops, args.seconds)
    op_times = [t for times in rounds for t in times]
    p90 = statistics.quantiles(op_times, n=10)[-1]
    beyond = sum(t > p90 for t in op_times)
    print(f"ops per round {len(ops)}, timed rounds {len(rounds)}, timed ops {len(op_times)}, "
          f"ops beyond p90 {beyond}" + ("" if beyond >= 10 else
                                         " (fewer than 10: p90 is close to the maximum)")
          + f", failed {len(tally.failures)} of {tally.attempted} ops")
    print(f"metric fail_ratio = {len(tally.failures) / tally.attempted!r} ratio")
    report_outputs(tally.outputs)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(times) for times in rounds),
        "op_p50_ms": statistics.median(op_times) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return tally.result(metrics, dict(END_TO_END))


def traced_round(ops, tally):
    """One round with the tracer installed; return (tracer, seconds of ops)."""
    import tracing
    import workloads

    tracer = tracing.Tracer()
    tracer.install(callers=(workloads,))
    try:
        seconds = sum(tally.run_round(ops, tracer))
    finally:
        tracer.uninstall()
    tracer.counts["cli.bytes_written"] = sum(
        info.get("bytes_written", 0) for info in tally.outputs.values())
    return tracer, seconds


def traced_run(args, ops) -> dict:
    import tracing

    tally = Tally()
    untraced = [sum(times) for times in measure(tally, ops, args.seconds)]
    tracer, traced = traced_round(ops, tally)
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}; traced round {traced!r} s, "
          f"untraced rounds {len(untraced)}, median {statistics.median(untraced)!r} s")
    metrics = tracer.metrics()
    metrics["import.scipy_stats_s"] = statistics.median(
        float(run_probe(["import-scipy-stats"])[1]) for _ in range(IMPORT_PROBES))
    metrics["trace.overhead_s"] = traced - statistics.median(untraced)
    metrics["trace.spans"] = len(tracer.spans)
    return tally.result(metrics, dict(tracing.PER_LAYER + EXTRA_PER_LAYER))


def report_outputs(outputs: dict):
    """Print the last round's outputs: worst value of each numeric field,
    and every field of the CLI runs (their KS values among them)."""
    worst = {}
    for name, info in outputs.items():
        if name.startswith("clt_simulate"):
            print(f"output {name} {json.dumps(info)}")
        for key, value in info.items():
            if isinstance(value, float):
                worst[key] = max(worst.get(key, value), value)
    if worst:
        print("output worst " + json.dumps(worst))


# -- child processes --------------------------------------------------------


def run_probe(argv) -> tuple:
    """Run probe.py; return (seconds from spawn to its first line, that line)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "probe.py"), *argv], cwd=ROOT,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"probe {argv} failed ({proc.returncode}): {err.strip()}")
    return elapsed, line.strip()


def setup_probe(args, index: int) -> float:
    workdir = WORK / f"probe-{os.getpid()}-{index}"
    workdir.mkdir()
    try:
        elapsed, _ = run_probe(["setup", args.workload, str(args.seed),
                                "1" if args.tiny else "0", str(workdir)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return elapsed


# -- provenance -------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    import innerclt

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "innerclt": innerclt.__version__,
        "git_commit": _git_commit(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "load": "one benchmark process; child processes only for set-up and import probes",
        "bytes_note": "byte counts are computed from sizes, not measured; no bandwidth claim",
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


if __name__ == "__main__":
    sys.exit(main())
