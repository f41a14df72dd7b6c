"""Spans and counts around the public functions of each latticebae layer.

The tracer replaces a function at the name its caller looks it up by (a
module attribute), so a call made through ``from .x import f`` is wrapped
in the importing module and a call made through ``module.f`` in the
defining one.  Spans stay in memory; a layer's self time is its span's
duration minus the durations of the spans it directly caused.  A function
that is missing (renamed or removed by a later change) is recorded as an
absent layer and its metrics read 0.  Nothing here runs unless a traced
run installs it.

Work counts marked "computed" come from array shapes, not from hardware
counters: kernel entries, dense LU flops (2/3 n^3 per factorization) and
the bytes of the dense blocks and of the ``lgf_grid`` tables.
"""

from __future__ import annotations

import ctypes
import functools
import importlib
import time
import weakref
from collections import defaultdict

#: (module, attribute its caller looks up, span name).
WRAPPED = (
    ("latticebae.harness", "solve_problem", "harness.solve_problem"),
    ("latticebae.harness", "run_convergence", "harness.run_convergence"),
    ("latticebae.harness", "run_conditioning", "harness.run_conditioning"),
    ("latticebae.geometry", "classify", "geometry.classify"),
    ("latticebae.geometry", "select_intersections", "geometry.select_intersections"),
    ("latticebae.closure", "assemble_closure", "closure.assemble_closure"),
    ("latticebae.solver", "assemble_layer_matrix", "potentials.assemble_layer_matrix"),
    ("latticebae.potentials", "evaluate_potential", "potentials.evaluate_potential"),
    ("latticebae.potentials", "lgf_grid", "lgf.lgf_grid"),
    ("latticebae.lgf", "lgf_quadrature", "lgf.lgf_quadrature"),
    ("latticebae.solver", "solve_system", "solver.solve_system"),
    ("latticebae.solver", "assemble_system", "solver.assemble_system"),
    ("latticebae.solver", "dense_solve", "solver.dense_solve"),
    ("latticebae.solver", "recover", "solver.recover"),
    ("latticebae.solver", "condition_number", "solver.condition_number"),
    ("latticebae.diffpot", "fft_poisson_solve", "diffpot.fft_poisson_solve"),
    ("latticebae.diffpot", "particular_solution", "diffpot.particular_solution"),
    ("latticebae.diffpot", "difference_potential", "diffpot.difference_potential"),
)

#: Per-layer metrics in report order, with units.  Self times are for one
#: warm pass; counts are summed over that pass unless noted.
METRICS = (
    ("lgf.lgf_grid.calls", "count"),
    ("lgf.lgf_grid.misses", "count"),
    ("lgf.lgf_grid.hit_ratio", "ratio"),
    ("lgf.lgf_grid.self_s", "s"),
    ("lgf.lgf_grid.cached_mb", "MB"),
    ("lgf.lgf_quadrature.calls", "count"),
    ("lgf.memo.entries", "count"),
    ("geometry.classify.self_s", "s"),
    ("geometry.select_intersections.self_s", "s"),
    ("geometry.gamma_minus.nodes", "count"),
    ("geometry.m_plus.nodes", "count"),
    ("closure.assemble_closure.self_s", "s"),
    ("closure.gamma_tilde_plus.nodes", "count"),
    ("closure.eta.nodes", "count"),
    ("closure.nnz", "count"),
    ("potentials.assemble_layer_matrix.calls", "count"),
    ("potentials.assemble_layer_matrix.self_s", "s"),
    ("potentials.assemble_layer_matrix.entries", "count"),
    ("potentials.assemble_layer_matrix.mb", "MB"),
    ("potentials.evaluate_potential.self_s", "s"),
    ("potentials.evaluate_potential.lookups", "count"),
    ("solver.solve_system.self_s", "s"),
    ("solver.assemble_system.self_s", "s"),
    ("solver.dense_solve.self_s", "s"),
    ("solver.recover.self_s", "s"),
    ("solver.condition_number.self_s", "s"),
    ("solver.system.rows", "count"),
    ("solver.lu.factorizations", "count"),
    ("solver.lu.flops", "flop"),
    ("diffpot.fft_poisson_solve.self_s", "s"),
    ("diffpot.fft_poisson_solve.calls", "count"),
    ("diffpot.particular_solution.self_s", "s"),
    ("diffpot.difference_potential.self_s", "s"),
    ("diffpot.box.nodes", "count"),
    ("harness.solve_problem.self_s", "s"),
    ("harness.run_convergence.self_s", "s"),
    ("harness.run_conditioning.self_s", "s"),
    ("harness.matrix.ok", "count"),
    ("harness.matrix.by_design", "count"),
    ("harness.matrix.typed_error", "count"),
    ("harness.matrix.untyped_error", "count"),
    ("harness.matrix.silent_wrong", "count"),
    ("trace.pass_s", "s"),
    ("trace.untraced_pass_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.accounted_frac", "ratio"),
    ("trace.absent_layers", "count"),
    ("blas.threads", "count"),
)


def _count_classify(counts, args, kwargs, ps):
    counts["geometry.gamma_minus.nodes"] += int(ps.gamma_minus.sum())
    counts["geometry.m_plus.nodes"] += int(ps.m_plus.sum())


def _count_closure(counts, args, kwargs, cm):
    counts["closure.gamma_tilde_plus.nodes"] += len(cm.gamma_tilde_plus)
    counts["closure.eta.nodes"] += len(cm.eta)
    counts["closure.nnz"] += sum(
        block.nnz for block in (cm.phi_plus, cm.phi_minus, cm.phi_prime_minus,
                                cm.r_plus, cm.r_minus)
    )


def _count_layer_matrix(counts, args, kwargs, matrix):
    counts["potentials.assemble_layer_matrix.calls"] += 1
    counts["potentials.assemble_layer_matrix.entries"] += matrix.entries.size
    counts["potentials.assemble_layer_matrix.mb"] += matrix.entries.nbytes / 1e6


def _count_evaluate(counts, args, kwargs, values):
    density = args[1] if len(args) > 1 else kwargs["density"]
    counts["potentials.evaluate_potential.lookups"] += len(values) * len(density.values)


def _count_dense_solve(counts, args, kwargs, solution):
    counts["solver.system.rows"] += len(solution)


def _count_fft(counts, args, kwargs, w):
    counts["diffpot.fft_poisson_solve.calls"] += 1
    counts["diffpot.box.nodes"] += w.values.size


def _count_quadrature(counts, args, kwargs, value):
    counts["lgf.lgf_quadrature.calls"] += 1


#: Span name -> hook(counts, args, kwargs, result) run after the call.
_HOOKS = {
    "geometry.classify": _count_classify,
    "closure.assemble_closure": _count_closure,
    "potentials.assemble_layer_matrix": _count_layer_matrix,
    "potentials.evaluate_potential": _count_evaluate,
    "solver.dense_solve": _count_dense_solve,
    "diffpot.fft_poisson_solve": _count_fft,
    "lgf.lgf_quadrature": _count_quadrature,
}


class Tracer:
    """In-memory spans and counts for one traced process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []
        self._patched = []  # (owner, attribute, original)
        self._tables = weakref.WeakValueDictionary()  # id -> live lgf_grid table

    def reset(self) -> None:
        """Drop spans and counts; tables seen so far stay known, so a
        later call that returns one of them still counts as a hit."""
        self.spans.clear()
        self.counts.clear()

    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            try:
                owner = importlib.import_module(module_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(span)
                continue
            self._patch(owner, attr, self._wrap(span, original))
        # Imported here, not at module load: the timed run imports this
        # module, and its set-up sample must include loading scipy.
        import scipy.linalg

        self._patch(scipy.linalg, "lu_factor", self._wrap_lu(scipy.linalg.lu_factor))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, span_name: str, fn):
        hook = _HOOKS.get(span_name)
        is_grid = span_name == "lgf.lgf_grid"
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [span_name, 0.0, 0.0, stack[-1] if stack else None]
            index = len(spans)
            spans.append(record)
            stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            try:
                if hook is not None:
                    hook(counts, args, kwargs, result)
                if is_grid:
                    self._count_grid(result)
            except (AttributeError, IndexError, KeyError, TypeError):
                # The function changed shape; its counts are absent, its span stays.
                if f"{span_name} counts" not in self.absent:
                    self.absent.append(f"{span_name} counts")
            return result

        return traced

    def _wrap_lu(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            n = len(a)
            counts["solver.lu.factorizations"] += 1
            counts["solver.lu.flops"] += 2.0 * n ** 3 / 3.0
            return fn(a, *args, **kwargs)

        return counted

    def _count_grid(self, table) -> None:
        # A table seen before and still alive is a cache hit; any other
        # return value was built by this call.
        counts = self.counts
        counts["lgf.lgf_grid.calls"] += 1
        if self._tables.get(id(table)) is not table:
            counts["lgf.lgf_grid.misses"] += 1
            self._tables[id(table)] = table
        live_mb = sum(t.nbytes for t in self._tables.values()) / 1e6
        counts["lgf.lgf_grid.cached_mb"] = max(counts["lgf.lgf_grid.cached_mb"], live_mb)

    def self_times(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, parent), covered in zip(self.spans, child):
            out[name] += (end - start) - covered
        return out

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process.

    Reads the library paths from this process's own memory map and asks
    each library; an empty dict means no OpenBLAS was found.
    """
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return {}
    found = {}
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[path.rsplit("/", 1)[-1]] = int(fn())
                break
    return found
