"""phasegas benchmark: time CLI workloads end to end, check every output, trace layers.

    python3 perfbench/run.py --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py for why each exists): dense_spectra, arpack_sweep,
oracle_compare, cli_demo.  BLAS and OpenMP are pinned to one thread before
numpy loads.  Each run starts SETUP_SAMPLES fresh worker processes; each times
its set-up (imports, config, objects, one warm-up call), and the last one then
repeats the workload's batch for --seconds and checks every output against
references.json.  --seed sets overlaps.seed, the only random input.

Printed: a report per workload, then as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics
with --trace 0, the per-layer metrics of a traced run with --trace 1.  The
full record (distributions, environment, failures, spans) is written to
.perfbench_out/BENCH_<workload>_seed<seed>_trace<t>.json.  Exit code 0 when
every failed operation is a known defect, 1 otherwise, 2 when the checkout holds
no phasegas sources or a worker cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import envinfo
from workloads import DEFAULT_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 3
WORKER_TIMEOUT_S = 150
IMPORT_PROBE = (
    "import time; t = time.monotonic(); "
    "import phasegas.cli, phasegas.operator, phasegas.spectral, phasegas.fock, phasegas.coherent; "
    "print(time.monotonic() - t)"
)


class BenchError(RuntimeError):
    pass


def unit_of(metric: str) -> str:
    if metric == "peak_rss_mb":
        return "MiB"
    if metric.endswith("_s"):
        return "s"
    if "bytes" in metric:
        return "B"
    return "count"


def distribution(values: list) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "percentile": None, "value": None, "samples": values}
    if n >= 11:
        p = math.floor(100 * (1 - 10 / n))
        if p >= 1:
            out["percentile"] = p
            out["value"] = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
    return out


def import_seconds() -> float:
    """Median time for a fresh process to import the CLI and the numeric layers."""
    times = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            env=envinfo.pinned_env(),
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    os.makedirs(envinfo.WORK, exist_ok=True)
    setups = []
    for i in range(SETUP_SAMPLES):
        path = os.path.join(envinfo.WORK, f"worker_{name}_{i}.json")
        if os.path.exists(path):
            os.remove(path)
        spawned = time.monotonic()
        cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--result", path,
               "--spawned-at", repr(spawned)]
        if i < SETUP_SAMPLES - 1:
            cmd.append("--setup-only")
        proc = subprocess.run(cmd, env=envinfo.pinned_env(), stdout=sys.stderr, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"{name}: worker {i} failed")
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        os.remove(path)
        setups.append(result["setup_s"])

    walls = result["walls"]
    record = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "setup_s": distribution(setups),
        "wall_s": distribution(walls),
        "peak_rss_mb": result["peak_rss_mib"],
        "error_rate": {
            "value": result["failed"] / result["attempted"],
            "failed": result["failed"],
            "attempted": result["attempted"],
        },
        "failures": result["failures"],
        "unexpected": result["unexpected"],
        "environment": result["environment"],
    }
    if trace:
        metrics = dict(result["layer_metrics"])
        metrics["cli.import_s"] = import_seconds()
        metrics["trace.overhead_s"] = statistics.median(result["traced_walls"]) - statistics.median(walls)
        record["traced_wall_s"] = distribution(result["traced_walls"])
        record["absent"] = result["absent"]
        with open(os.path.join(envinfo.WORK, f"spans_{name}_seed{seed}.json"), "w", encoding="utf-8") as fh:
            json.dump({"absent": result["absent"], "spans": result["spans"]}, fh)
    else:
        metrics = {
            "wall_s": record["wall_s"]["median"],
            "setup_s": record["setup_s"]["median"],
            "peak_rss_mb": record["peak_rss_mb"],
        }
    record["summary"] = {
        "correct": not result["unexpected"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    with open(os.path.join(envinfo.WORK, f"BENCH_{name}_seed{seed}_trace{trace}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def _timing_line(name: str, d: dict, what: str) -> str:
    tail = (
        f"p{d['percentile']} {d['value']:.4f} s" if d["percentile"]
        else "no percentile has 10 samples beyond it"
    )
    return f"  {name:<12} {d['median']:.4f} s   median of {d['n']} {what}; {tail}"


def report(record: dict) -> None:
    env = record["environment"]
    print(
        f"{record['workload']}: seed {record['seed']}, trace {record['trace']}, nproc {env['nproc']}, "
        f"{env['blas']['name']} {env['blas']['version']}, threads {env['threads']['OPENBLAS_NUM_THREADS']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, python {env['python']}, commit {env['commit']}"
    )
    print(_timing_line("wall_s", record["wall_s"], "batches"))
    print(_timing_line("setup_s", record["setup_s"], "set-ups"))
    print(f"  {'peak_rss_mb':<12} {record['peak_rss_mb']:.1f} MiB")
    er = record["error_rate"]
    print(f"  {'error_rate':<12} {er['value']:.4f}   {er['failed']} failed of {er['attempted']} attempted")
    for failure in record["failures"]:
        print(f"    failed: {failure}")
    if record["trace"]:
        for key, m in record["summary"]["metrics"].items():
            print(f"  {key:<26} {m['value']:.6g} {m['unit']}")
        if record["absent"]:
            print(f"  absent (not traced): {', '.join(record['absent'])}")
    print(f"  gate: {'correct' if record['summary']['correct'] else 'INCORRECT'}")
    for problem in record["unexpected"]:
        print(f"    unexpected: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    envinfo.check_source()

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        report(record)
    if len(records) == 1:
        summary = records[0]["summary"]
    else:
        summary = {
            "correct": all(r["summary"]["correct"] for r in records),
            "attempted": sum(r["summary"]["attempted"] for r in records),
            "failed": sum(r["summary"]["failed"] for r in records),
            "metrics": {
                f"{r['workload']}.{k}": m for r in records for k, m in r["summary"]["metrics"].items()
            },
        }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
