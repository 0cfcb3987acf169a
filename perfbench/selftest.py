"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  * every metric BENCHMARK.json names is printed, by name and with its unit,
    in the timed and the traced run of every workload;
  * a deliberately corrupted output (a perturbed CSV row, an injected
    residual, a dropped atom, a skewed variance) or a raising op counts as
    a failed op, while the untouched round has none;
  * the counts of two traced rounds of the same seed are equal.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins the native thread pools on import

HERE = Path(__file__).resolve().parent
SEED = 3
PROBLEMS = []


def expect(cond: bool, what: str):
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        PROBLEMS.append(what)


def check_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=HERE.parent, capture_output=True, text=True, timeout=600)
            tag = f"{workload} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            expect(proc.returncode == 0 and bool(lines), f"{tag}: exits 0 with output")
            if proc.returncode != 0 or not lines:
                print(proc.stderr)
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   f"{tag}: result has exactly its four keys")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{tag}: all {result['attempted']} ops pass their checks")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == expected[trace], f"{tag}: result names every metric with its unit")
            printed = {line.split()[1]: line.split()[-1] for line in lines[:-1]
                       if line.startswith("metric ")}
            expect(all(printed.get(k) == u for k, u in expected[trace].items()),
                   f"{tag}: a 'metric <name> = <value> <unit>' line for every metric")
            if trace == 0:
                expect(printed.get("fail_ratio") == "ratio", f"{tag}: fail_ratio printed")


def corrupt(ops, name_prefix, wrap):
    """Replace the first op whose name starts with name_prefix by wrap(op)."""
    for i, op in enumerate(ops):
        if op.name.startswith(name_prefix):
            ops[i] = dataclasses.replace(op, fn=wrap(op.fn))
            return op.name
    raise LookupError(name_prefix)


def mutate(change):
    """A corruption that passes the op's output through change()."""
    return lambda workdir: lambda fn: lambda: change(fn())


def perturb_csv_row(workdir):
    """Shift one sample of the z^2 headline CSV after the CLI wrote it."""
    def wrap(fn):
        def corrupted():
            rc = fn()
            path = workdir / "z2-headline" / "samples.csv"
            lines = path.read_text().splitlines()
            re, im = lines[101].split(",")
            lines[101] = f"{float(re) + 1e-3!r},{im}"
            path.write_text("\n".join(lines) + "\n")
            return rc
        return corrupted
    return wrap


def raise_error(workdir):
    def wrap(fn):
        def corrupted():
            raise RuntimeError("injected failure")
        return corrupted
    return wrap


CORRUPTIONS = {
    "quad_corr": [
        ("four_factor_IV", mutate(lambda r: dataclasses.replace(r, residual=1e-6))),
        ("pair[", mutate(lambda r: dataclasses.replace(r, value=r.value + 1e-6))),
    ],
    "clark_atoms": [
        ("clark_measure", mutate(lambda mu: dataclasses.replace(mu, atoms=mu.atoms[1:]))),
        ("second_moment", mutate(lambda residual: residual + 1e-6)),
    ],
    "clt_sample": [
        ("clt_simulate[z2-headline]", perturb_csv_row),
        ("clt_simulate[deg2-headline]", raise_error),
    ],
    "variance_scan": [
        ("sigma_N_squared", mutate(lambda s: s * (1.0 + 1e-6))),
        ("quasiorthogonality", mutate(lambda t: dataclasses.replace(
            t, ratios=tuple(r * (1.0 + 1e-6) for r in t.ratios)))),
    ],
}


def check_corruption_detected():
    import workloads

    for workload, cases in CORRUPTIONS.items():
        workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
        try:
            clean = run.Tally()
            clean.run_round(workloads.build(workload, SEED, True, workdir))
            expect(not clean.failures, f"{workload}: untouched round has no failed op")
            for prefix, make in cases:
                ops = workloads.build(workload, SEED, True, workdir)
                name = corrupt(ops, prefix, make(workdir))
                tally = run.Tally()
                tally.run_round(ops)
                expect([f.split(":")[0] for f in tally.failures] == [name],
                       f"{workload}: corrupted {name} is the one failed op")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def check_counts_repeat():
    import tracing
    import workloads

    counted = [k for k, unit in tracing.PER_LAYER if unit in ("count", "B")]
    for workload in run.WORKLOADS:
        seen = []
        for _ in range(2):
            workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
            try:
                ops = workloads.build(workload, SEED, True, workdir)
                tracer, _ = run.traced_round(ops, run.Tally())
                metrics = tracer.metrics()
                seen.append({k: metrics[k] for k in counted} | {"spans": len(tracer.spans)})
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
        expect(seen[0] == seen[1], f"{workload}: traced counts repeat exactly")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(exist_ok=True)
    check_corruption_detected()
    check_counts_repeat()
    check_printed_metrics()
    print(f"{len(PROBLEMS)} problem(s)" if PROBLEMS else "self-test passed")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
