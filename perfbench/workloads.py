"""The benchmark's workloads: which CLI calls each one makes, on which config, and why.

Every operation is one call of ``phasegas.cli.main`` (or, for ``cli_demo``, one
fresh ``python -m phasegas.cli`` process) on a config derived from a JSON file
in ``configs/``.  Derivation only sets dotted keys, so the benchmark depends on
the CLI and its config schema and on no library function by name.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

# the config schema's default for overlaps.seed; --seed replaces it
DEFAULT_SEED = 20260816

CONFIG_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "configs")

ARPACK_ZERO_MISS = (
    "known defect (ROADMAP item 4): at epsilon=0 ARPACK's uniform start vector stays in "
    "the x<->y symmetric sector and skips the degenerate level; the CLI exits 0"
)


@dataclass(frozen=True)
class Op:
    """One CLI call: a subcommand on the workload config with dotted-key overrides."""

    label: str
    command: str
    overrides: dict = field(default_factory=dict)
    # a defect that exists at the commit that defined the benchmark: the op
    # still counts as failed, but it does not make the run incorrect
    known_defect: str | None = None
    # label of the op at +epsilon whose spectrum this one must conjugate-pair
    mirror_of: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    config: str
    ops: tuple
    warmup: Op
    fresh_process: bool


def _eps_op(eps: float, **kw) -> Op:
    return Op(f"spectrum eps={eps:g}", "spectrum", {"params.epsilon": eps}, **kw)


WORKLOADS = {
    w.name: w
    for w in (
        # dense zgeev is ~85-90% of the cost and assembly under 3%: exercises
        # dense-solve and blocking changes, bypasses assembly changes
        Workload(
            name="dense_spectra",
            config="dense_spectra.json",
            ops=(Op("scan", "scan"), Op("perturb", "perturb")),
            warmup=Op("warm-up spectrum", "spectrum"),
            fresh_process=False,
        ),
        # the iterative mode of the spectral layer, where assembly is about a
        # third of the compute; epsilon=0 is the demo's excited-level reference
        Workload(
            name="arpack_sweep",
            config="arpack_sweep.json",
            ops=(
                _eps_op(0.0, known_defect=ARPACK_ZERO_MISS),
                _eps_op(0.1),
                _eps_op(-0.1, mirror_of="spectrum eps=0.1"),
                _eps_op(0.2),
                _eps_op(-0.2, mirror_of="spectrum eps=0.2"),
            ),
            warmup=_eps_op(0.1),
            fresh_process=False,
        ),
        # the only workload through the Fock oracle (enumerate, build, eigh),
        # beside a dense eig of the diagonal weak operator at dim 729
        Workload(
            name="oracle_compare",
            config="oracle_compare.json",
            ops=(Op("compare", "compare"),),
            warmup=Op("warm-up compare", "compare", {"compare.couplings": [1.0]}),
            fresh_process=False,
        ),
        # what the README runs: each subcommand in a fresh process, so process
        # start, imports and the coherent layer are measured
        Workload(
            name="cli_demo",
            config="cli_demo.json",
            ops=tuple(Op(c, c) for c in ("overlaps", "spectrum", "compare", "perturb", "scan")),
            warmup=Op("warm-up compare", "compare"),
            fresh_process=True,
        ),
    )
}


def derive_config(workload: Workload, op: Op, seed: int, path: str) -> dict:
    """Write the op's config (workload file + overrides + overlaps.seed) to `path`."""
    with open(os.path.join(CONFIG_DIR, workload.config), "r", encoding="utf-8") as fh:
        data = json.load(fh)
    overrides = dict(op.overrides)
    overrides["overlaps.seed"] = seed
    for key, value in overrides.items():
        section, name = key.split(".")
        data.setdefault(section, {})[name] = value
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    return data
