"""One benchmark process: set up a workload, then run its batch until the time is up.

Started by run.py, never by hand.  Set-up is everything before the first timed
operation: imports, config derivation and load, object construction, and one
warm-up call of the workload's kind.  With --setup-only the process reports its
set-up time and exits; otherwise it goes on to the timed batches (closed loop,
one operation after another) and checks every output with the gate.

With --trace 1 the time is split: first untraced batches, then batches with the
tracer installed, so the tracing overhead is the difference of their medians.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import envinfo

envinfo.pin_threads()

import gate  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, derive_config  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
REFERENCES = os.path.join(HERE, "references.json")
MIN_BATCHES = 3
MIN_TRACE_BATCHES = 2
CHILD_TIMEOUT_S = 120


class Runner:
    def __init__(self, workload, seed: int, work: str):
        self.workload = workload
        self.seed = seed
        self.work = work
        with open(REFERENCES, encoding="utf-8") as fh:
            self.refs = json.load(fh).get(workload.name, {})
        self.configs = {}
        self.tolerances = {}
        self.first_digests: dict = {}
        self.n_batches = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list = []  # (op label, problem)
        self.unexpected: list = []
        self.env = envinfo.pinned_env()

    # -- set-up ---------------------------------------------------------------

    def prepare(self) -> None:
        """Derive and load every op's config and build its objects, as the CLI will."""
        from phasegas import config

        for i, op in enumerate((self.workload.warmup,) + self.workload.ops):
            path = os.path.join(self.work, "configs", f"op{i}.json")
            data = derive_config(self.workload, op, self.seed, path)
            cfg = config.load_config(path)
            lattice = cfg.lattice()
            cfg.params(lattice)
            cfg.basis(lattice)
            self.configs[op.label] = path
            self.tolerances[op.label] = gate.Tolerances.from_config(data)

    def warm_up(self) -> None:
        code, error = self.call(self.workload.warmup, os.path.join(self.work, "warmup"), None, None)
        if code != 0:
            raise RuntimeError(f"warm-up {self.workload.warmup.label} failed: exit {code} {error}")

    # -- one operation --------------------------------------------------------

    def call(self, op, out: str, tracer, op_id):
        """Run one CLI call into a fresh `out`; returns (exit code or None, error text)."""
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        argv = ["--config", self.configs[op.label], "--out", out, op.command]
        if self.workload.fresh_process:
            return self._call_child(argv, tracer, op_id)
        from phasegas import cli

        scope = tracer.span(f"cli.{op.command}", "cli") if tracer else contextlib.nullcontext()
        code, error = None, None
        with scope as span:
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not the end of the run
                error = traceback.format_exc(limit=3)
        if span is not None:
            span.attrs["bytes"] = gate.bytes_written(out)
        return code, error

    def _call_child(self, argv, tracer, op_id):
        if tracer is None:
            cmd = [sys.executable, "-m", "phasegas.cli", *argv]
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
            return proc.returncode, None
        spans_path = os.path.join(self.work, "child_spans.json")
        with contextlib.suppress(FileNotFoundError):
            os.remove(spans_path)
        with tracer.span("cli.process", "cli") as span:
            cmd = [sys.executable, CHILD, "--spans", spans_path, "--parent", span.id,
                   "--op", op_id, "--", *argv]
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S)
        try:
            with open(spans_path, encoding="utf-8") as fh:
                child = json.load(fh)
        except FileNotFoundError:
            return proc.returncode, "the traced child wrote no spans"
        tracer.spans.extend(tracing.spans_from_json(child["spans"]))
        tracer.absent = sorted(set(tracer.absent) | set(child["absent"]))
        return proc.returncode, None

    # -- one batch ------------------------------------------------------------

    def batch(self, tracer) -> float:
        """Run and check every op once; returns the wall time including the checks."""
        t0 = time.monotonic()
        self.n_batches += 1
        tables_by_label = {}
        for i, op in enumerate(self.workload.ops):
            op_id = f"b{self.n_batches}.o{i}"
            if tracer is not None:
                tracer.op = op_id
            out = os.path.join(self.work, "out", f"op{i}")
            code, error = self.call(op, out, tracer, op_id)
            tol = self.tolerances[op.label]
            problems, byte_problems = [], []
            if code != 0:
                problems.append(f"exit code {code}" + (f": {error}" if error else ""))
            else:
                tables = gate.read_outputs(out)
                tables_by_label[op.label] = tables
                problems += gate.check_outputs(op.command, tables, self.refs.get(op.label, {}).get("tables"), tol)
                if op.mirror_of in tables_by_label:
                    problems += gate.check_mirror(tables_by_label[op.mirror_of], tables, tol)
                digests = gate.digests(out)
                byte_problems = gate.check_bytes(self.first_digests.setdefault(op.label, digests), digests)
            self.attempted += 1
            if problems or byte_problems:
                self.failed += 1
                self.failures += [(op.label, p) for p in problems + byte_problems]
            if byte_problems or (problems and not op.known_defect):
                self.unexpected += [(op.label, p) for p in problems + byte_problems]
        if tracer is not None:
            tracer.op = None
        return time.monotonic() - t0

    def batches(self, budget: float, minimum: int, tracer=None) -> list:
        """Repeat the batch until another would overrun `budget` seconds (at least `minimum`)."""
        start, walls = time.monotonic(), []
        while True:
            walls.append(self.batch(tracer))
            elapsed = time.monotonic() - start
            if len(walls) >= minimum and elapsed + statistics.median(walls) > budget:
                return walls


def main() -> int:
    parser = argparse.ArgumentParser(description="one benchmark process (started by run.py)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    # imports of the program and its numeric stack count as set-up
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    from phasegas import cli, coherent, fock, operator, spectral  # noqa: F401

    work = os.path.join(envinfo.WORK, f"{args.workload}-{os.getpid()}")
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    try:
        runner.prepare()
        runner.warm_up()
        result = {"setup_s": time.monotonic() - args.spawned_at}
        if not args.setup_only:
            result.update(measure(runner, args))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


def measure(runner: Runner, args) -> dict:
    out: dict = {}
    if not args.trace:
        out["walls"] = runner.batches(args.seconds, MIN_BATCHES)
    else:
        out["walls"] = runner.batches(args.seconds / 2, MIN_TRACE_BATCHES)
        tracer = tracing.Tracer(prefix="p")
        tracer.install()
        try:
            out["traced_walls"] = runner.batches(args.seconds / 2, MIN_TRACE_BATCHES, tracer)
        finally:
            tracer.uninstall()
        batches: dict = {}
        for s in tracer.spans:
            batches.setdefault(s.op.split(".")[0] if s.op else None, []).append(s)
        batches.pop(None, None)
        out["layer_metrics"] = tracing.median_metrics([tracing.layer_metrics(b) for b in batches.values()])
        out["absent"] = tracer.absent
        out["spans"] = tracing.spans_to_json(tracer.spans)
    usage = resource.RUSAGE_CHILDREN if runner.workload.fresh_process else resource.RUSAGE_SELF
    out["peak_rss_mib"] = resource.getrusage(usage).ru_maxrss / 1024.0
    out["attempted"] = runner.attempted
    out["failed"] = runner.failed
    out["failures"] = sorted({f"{label}: {p}" for label, p in runner.failures})
    out["unexpected"] = sorted({f"{label}: {p}" for label, p in runner.unexpected})
    out["environment"] = envinfo.environment(args.seed)
    return out


if __name__ == "__main__":
    sys.exit(main())
