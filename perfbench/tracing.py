"""Spans for the traced run, recorded around calls into each phasegas layer.

The tracer replaces module attributes with timing wrappers: the public
functions of the ``operator``, ``spectral``, ``fock`` and ``coherent`` modules,
and the kernels those modules reach through a module attribute
(``scipy.linalg.eig``, ``lu_factor``, ``scipy.sparse.linalg.eigs``/``eigsh``,
``numpy.linalg.eigh``).  Calls made through a name a module bound at import
time are not seen, so the list names only functions the CLI reaches through
an attribute lookup.  A listed function that does not exist is reported as
absent, so the benchmark survives a later change that removes or renames it.

Each span records its name, layer, start, end, parent span and operation id.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import time
from dataclasses import asdict, dataclass, field

LAYERS = ("cli", "operator", "spectral", "fock", "coherent", "kernel")
CLI_COMMANDS = ("overlaps", "spectrum", "compare", "perturb", "scan")


@dataclass
class Span:
    id: str
    name: str
    layer: str
    parent: str | None
    op: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _nnz(attrs, args, kwargs, result):
    matrix = getattr(result, "matrix", None)
    if matrix is not None:
        attrs["nnz"] = int(matrix.nnz)
        attrs["dim"] = int(matrix.shape[0])


def _method(attrs, args, kwargs, result):
    attrs["method"] = kwargs.get("method", "dense")


def _dense_kernel(attrs, args, kwargs, result):
    a = args[0] if args else kwargs["a"]
    n = a.shape[0]
    outputs = result if isinstance(result, tuple) else (result,)
    attrs["dim3"] = n**3
    # bytes of the square dense arrays at the kernel boundary (computed, not measured)
    attrs["bytes"] = a.nbytes + sum(o.nbytes for o in outputs if getattr(o, "ndim", 0) == 2)


# (module, attribute, layer, annotate)
TARGETS = (
    # `assemble` is the single affine assembler planned to replace the four below
    ("phasegas.operator", "assemble", "operator", _nnz),
    ("phasegas.operator", "assemble_weak", "operator", _nnz),
    ("phasegas.operator", "assemble_full", "operator", _nnz),
    ("phasegas.operator", "cubic_drift_operator", "operator", _nnz),
    ("phasegas.operator", "scaled_operator", "operator", _nnz),
    ("phasegas.spectral", "eigen_spectrum", "spectral", _method),
    ("phasegas.spectral", "ground_state", "spectral", None),
    ("phasegas.spectral", "perturbation_series", "spectral", None),
    ("phasegas.spectral", "multiset_match_error", "spectral", None),
    ("phasegas.fock", "enumerate_basis", "fock", None),
    ("phasegas.fock", "shift_operator", "fock", None),
    ("phasegas.fock", "build_hamiltonian", "fock", _nnz),
    ("phasegas.fock", "ground_pair", "fock", None),
    ("phasegas.fock", "ground_energy", "fock", None),
    ("phasegas.fock", "condensate_expectation", "fock", None),
    ("phasegas.fock", "mean_field_comparison", "fock", None),
    ("phasegas.coherent", "exponent_g", "coherent", None),
    ("phasegas.coherent", "phase_kernel_exponent", "coherent", None),
    ("phasegas.coherent", "overlap", "coherent", None),
    ("phasegas.coherent", "number_overlap_closed", "coherent", None),
    ("phasegas.coherent", "number_overlap_quadrature", "coherent", None),
    ("phasegas.coherent", "cross_sector_quadrature", "coherent", None),
    ("phasegas.coherent", "kernel_gram", "coherent", None),
    ("scipy.linalg", "eig", "kernel", _dense_kernel),
    ("scipy.linalg", "lu_factor", "kernel", _dense_kernel),
    ("scipy.sparse.linalg", "eigs", "kernel", None),
    ("scipy.sparse.linalg", "eigsh", "kernel", None),
    ("numpy.linalg", "eigh", "kernel", None),
)


class Tracer:
    """In-memory span recorder; `prefix` keeps ids unique across processes."""

    def __init__(self, clock=time.monotonic, prefix: str = "s", root: str | None = None):
        self.clock = clock
        self.prefix = prefix
        self.root = root  # parent of top-level spans, e.g. a span in the parent process
        self.op: str | None = None
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []
        self._undo: list = []

    def _open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else self.root
        span = Span(f"{self.prefix}{len(self.spans)}", name, layer, parent, self.op, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        s = self._open(name, layer)
        try:
            yield s
        finally:
            self._close(s)

    def wrap(self, module_name: str, attr: str, layer: str, annotate=None) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.absent.append(f"{module_name}.{attr}")
            return
        name = f"{layer}.{attr}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if annotate is not None:
                annotate(span.attrs, args, kwargs, result)
            return result

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, fn))

    def install(self, targets=TARGETS) -> None:
        for target in targets:
            self.wrap(*target)

    def uninstall(self) -> None:
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)


def spans_to_json(spans) -> list:
    return [asdict(s) for s in spans]


def spans_from_json(items) -> list:
    return [Span(**item) for item in items]


def self_times(spans) -> dict:
    """Span id -> duration minus the part of its interval covered by its children."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, edge = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, edge), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                edge = hi
        out[s.id] = s.duration - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one batch's spans (times in s; counts exact)."""
    by_id = {s.id: s for s in spans}

    def nested_in(s, layer):
        p = by_id.get(s.parent)
        while p is not None:
            if p.layer == layer:
                return True
            p = by_id.get(p.parent)
        return False

    def outer(layer):
        return [s for s in spans if s.layer == layer and not nested_in(s, layer)]

    def named(name, **attrs):
        return [s for s in spans if s.name == name and all(s.attrs.get(k) == v for k, v in attrs.items())]

    def total(group):
        return sum(s.duration for s in group)

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    operator = outer("operator")
    dense = named("spectral.eigen_spectrum", method="dense")
    arpack = named("spectral.eigen_spectrum", method="arpack")
    eig, lu = named("kernel.eig"), named("kernel.lu_factor")
    builds = named("fock.build_hamiltonian")
    coherent = outer("coherent")
    gram = [s for s in coherent if s.name == "coherent.kernel_gram"]
    m = {
        "operator.assemble_s": total(operator),
        "operator.assemble_calls": len(operator),
        "operator.nnz": attr_sum(operator, "nnz"),
        "spectral.dense_s": total(dense),
        "spectral.zgeev_s": total(eig),
        "spectral.dense_calls": len(dense),
        "spectral.dense_dim3": attr_sum(eig, "dim3"),
        "spectral.dense_bytes": attr_sum(eig + lu, "bytes"),
        "spectral.arpack_s": total(arpack),
        "spectral.eigs_s": total(named("kernel.eigs")),
        "spectral.arpack_calls": len(arpack),
        "spectral.series_s": total(named("spectral.perturbation_series")),
        "spectral.lu_s": total(lu),
        "fock.build_s": total(builds),
        "fock.shift_s": total(named("fock.shift_operator")),
        "fock.ground_s": total(named("fock.ground_pair")),
        "fock.eigh_s": total(named("kernel.eigh")),
        "fock.lanczos_s": total(named("kernel.eigsh")),
        "fock.dim": max((s.attrs.get("dim", 0) for s in builds), default=0),
        "fock.nnz": attr_sum(builds, "nnz"),
        "coherent.overlap_s": total(coherent) - total(gram),
        "coherent.gram_s": total(gram),
        "coherent.calls": len(coherent),
        "cli.bytes_written": attr_sum([s for s in spans if s.layer == "cli"], "bytes"),
    }
    for command in CLI_COMMANDS:
        m[f"cli.{command}_s"] = total(named(f"cli.{command}"))
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(own[s.id] for s in spans if s.layer == layer)
    return m


def median_metrics(per_batch: list) -> dict:
    """Median over batches of each metric; counts stay integers (they repeat exactly)."""
    out = {}
    for key in per_batch[0]:
        values = [b[key] for b in per_batch]
        whole = all(isinstance(v, int) for v in values)
        out[key] = statistics.median_low(values) if whole else statistics.median(values)
    return out
