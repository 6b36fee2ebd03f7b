"""Regenerate references.json: the values the correctness gate compares against.

    python3 perfbench/make_references.py [--workload NAME ...]

Each reference is the CLI's own output for the op's config at the default
seed, with one change for the ARPACK ops of ``arpack_sweep``: their reference
is the same config solved with ``solver.method: dense`` (a full left/right
zgeev at dim 4096 with the CLI's residual validation, keeping the top
``count`` eigenvalues), so the iterative result is checked against an
independent solver.  Tables whose values depend on the seed (``overlaps``) are
checked by their own pass/fail column and get no reference.  Written values are
Python float reprs, which round-trip exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import replace

import envinfo

envinfo.pin_threads()

import gate  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, derive_config  # noqa: E402

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")
KEEP = {"spectrum": ("spectrum",)}  # the ground vector is checked for bytes, not values


def reference_for(workload, op, work: str) -> dict:
    from phasegas import cli

    cfg_path = os.path.join(work, "config.json")
    out = os.path.join(work, "out")
    shutil.rmtree(out, ignore_errors=True)
    overrides = dict(op.overrides)
    data = derive_config(workload, op, DEFAULT_SEED, cfg_path)
    if op.command == "spectrum" and data["solver"].get("method") == "arpack":
        overrides["solver.method"] = "dense"
        derive_config(workload, replace(op, overrides=overrides), DEFAULT_SEED, cfg_path)
    t0 = time.perf_counter()
    code = cli.main(["--config", cfg_path, "--out", out, op.command])
    seconds = time.perf_counter() - t0
    if code != 0:
        raise SystemExit(f"{workload.name}/{op.label}: reference run exited {code}")
    tables = gate.read_outputs(out)
    keep = KEEP.get(op.command, tuple(tables))
    return {
        "solver": overrides.get("solver.method", "as configured"),
        "seconds": round(seconds, 3),
        "tables": {name: tables[name] for name in keep},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    refs = {}
    if os.path.exists(REFERENCES):
        with open(REFERENCES, encoding="utf-8") as fh:
            refs = json.load(fh)
    work = os.path.join(envinfo.WORK, "references")
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        entry = {}
        for op in workload.ops:
            if op.command == "overlaps":
                continue
            entry[op.label] = reference_for(workload, op, work)
            print(f"{name}: {op.label} ({entry[op.label]['seconds']} s)", file=sys.stderr)
        refs[name] = entry
    refs["_environment"] = envinfo.environment(DEFAULT_SEED)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
